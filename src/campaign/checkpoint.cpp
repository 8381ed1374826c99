#include "campaign/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "utils/atomic_file.hpp"
#include "utils/errors.hpp"
#include "utils/strings.hpp"

namespace dpbyz::campaign {

namespace {
constexpr const char* kMagic = "#dpbyz-campaign-manifest v1 ";
}

void save_manifest(const std::string& path, const Manifest& m) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  write_file_atomic(path, "campaign", [&](std::ostream& out) {
    out << kMagic << m.signature << "\n";
    out << strings::join(csv_header(), ",") << "\n";
    for (const auto& [index, artifact] : m.completed)
      out << strings::join(csv_cells(artifact), ",") << "\n";
  });
}

Manifest load_manifest(const std::string& path) {
  Manifest m;
  std::ifstream in(path, std::ios::binary);
  if (!in) return m;  // no manifest yet: fresh campaign

  // Read the whole file and split on '\n' ourselves: only lines that
  // were *terminated* count as durable — a torn final line (crash while
  // a non-atomic copy was in flight) is silently dropped.
  std::ostringstream blob_stream;
  blob_stream << in.rdbuf();
  const std::string blob = blob_stream.str();

  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    if (blob[i] == '\n') {
      lines.push_back(blob.substr(start, i - start));
      start = i + 1;
    }
  }
  // blob[start..] (if any) lacks its terminator: dropped by design.

  require(!lines.empty() && strings::starts_with(lines[0], kMagic),
          "campaign: '" + path + "' is not a v1 campaign manifest");
  m.signature = lines[0].substr(std::string(kMagic).size());
  require(lines.size() >= 2 && lines[1] == strings::join(csv_header(), ","),
          "campaign: '" + path + "' carries an unknown manifest schema");

  for (size_t i = 2; i < lines.size(); ++i) {
    // Tolerate a corrupt/truncated *parsed* tail the same way: stop at
    // the first row that fails to decode and keep the valid prefix.
    try {
      CellArtifact a = from_csv_cells(strings::split(lines[i], ','));
      m.completed[a.cell] = std::move(a);
    } catch (const std::exception&) {
      break;
    }
  }
  return m;
}

}  // namespace dpbyz::campaign
