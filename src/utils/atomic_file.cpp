#include "utils/atomic_file.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace dpbyz {

void write_file_atomic(const std::string& path, const std::string& what,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error(what + ": cannot open '" + tmp + "' for write");
    write(out);
    out.flush();
    if (!out) throw std::runtime_error(what + ": write to '" + tmp + "' failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error(what + ": cannot rename '" + tmp + "' over '" + path +
                             "': " + ec.message());
}

}  // namespace dpbyz
