// atomic_file.hpp — crash-safe whole-file writes (tmp + rename).
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace dpbyz {

/// Writes `path` atomically: `write` fills the sibling `<path>.tmp`,
/// which is flushed, checked and renamed over `path` (POSIX rename
/// atomicity), so a reader sees either the previous file or the complete
/// new one — never a torn write, and no `.tmp` is left behind on
/// success.  Throws std::runtime_error, prefixed with `what`, when the
/// tmp file cannot be opened, a write fails, or the rename fails.
void write_file_atomic(const std::string& path, const std::string& what,
                       const std::function<void(std::ostream&)>& write);

}  // namespace dpbyz
