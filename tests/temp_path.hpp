// temp_path.hpp — per-process scratch paths for tests that touch disk.
//
// ctest may run several test processes at once (and a developer may run
// the binary twice by hand), so every on-disk fixture lives under a
// directory named by the pid: two processes never share a file.  The
// directory is removed when the process exits normally.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace dpbyz {

/// testing::TempDir()/dpbyz_<pid>/<name>.  The parent directory exists;
/// `name` itself is not created.
inline std::string process_temp_path(const std::string& name) {
  struct ProcessDir {
    std::filesystem::path path;
    ProcessDir()
        : path(std::filesystem::path(::testing::TempDir()) /
               ("dpbyz_" + std::to_string(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~ProcessDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const ProcessDir dir;
  return (dir.path / name).string();
}

}  // namespace dpbyz
