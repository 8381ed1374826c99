#include "campaign/artifact.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "utils/csv.hpp"
#include "utils/errors.hpp"
#include "utils/strings.hpp"

namespace dpbyz::campaign {

std::string format_metric(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Shortest representation that round-trips to the identical bits.  17
  // significant digits always round-trip for IEEE doubles, so the loop
  // terminates; trying shorter precisions first keeps the common values
  // readable ("0.2", not "0.2000...0001").
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;  // unreachable for finite doubles; keeps the compiler calm
}

double parse_metric(const std::string& s) {
  if (s == "nan") return std::nan("");
  if (s == "inf") return std::numeric_limits<double>::infinity();
  if (s == "-inf") return -std::numeric_limits<double>::infinity();
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  require(end == s.c_str() + s.size() && !s.empty(),
          "campaign: unparsable numeric field '" + s + "'");
  return v;
}

size_t parse_size(const std::string& s, const std::string& what) {
  size_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  require(!s.empty() && ec == std::errc{} && ptr == end,
          "campaign: malformed " + what + " '" + s + "' (want a decimal count)");
  return v;
}

std::string sanitize_field(std::string s) {
  for (char& c : s)
    if (c == ',' || c == '\n' || c == '\r' || c == '"' || c == '\\') c = ';';
  return s;
}

const std::vector<std::string>& csv_header() {
  static const std::vector<std::string> header{
      "cell",           "id",
      "gar",            "attack",
      "eps",            "participation",
      "topology",       "channel",
      "churn",          "prune",
      "fast_math",      "seeds",
      "skip_reason",    "final_acc_mean",
      "final_acc_std",  "final_loss_mean",
      "final_loss_std", "min_loss_mean",
      "mi_auc",         "inv_rel_error",
      "inv_label_acc"};
  return header;
}

std::vector<std::string> csv_cells(const CellArtifact& a) {
  return {std::to_string(a.cell),
          sanitize_field(a.id),
          sanitize_field(a.gar),
          sanitize_field(a.attack),
          format_metric(a.eps),
          sanitize_field(a.participation),
          sanitize_field(a.topology),
          sanitize_field(a.channel),
          sanitize_field(a.churn),
          sanitize_field(a.prune),
          std::to_string(a.fast_math),
          std::to_string(a.seeds),
          sanitize_field(a.skip_reason),
          format_metric(a.final_acc_mean),
          format_metric(a.final_acc_std),
          format_metric(a.final_loss_mean),
          format_metric(a.final_loss_std),
          format_metric(a.min_loss_mean),
          format_metric(a.mi_auc),
          format_metric(a.inv_rel_error),
          format_metric(a.inv_label_acc)};
}

CellArtifact from_csv_cells(const std::vector<std::string>& cells) {
  require(cells.size() == csv_header().size(),
          "campaign: artifact row arity mismatch (" + std::to_string(cells.size()) +
              " cells, expected " + std::to_string(csv_header().size()) + ")");
  CellArtifact a;
  size_t i = 0;
  a.cell = static_cast<size_t>(std::stoull(cells[i++]));
  a.id = cells[i++];
  a.gar = cells[i++];
  a.attack = cells[i++];
  a.eps = parse_metric(cells[i++]);
  a.participation = cells[i++];
  a.topology = cells[i++];
  a.channel = cells[i++];
  a.churn = cells[i++];
  a.prune = cells[i++];
  a.fast_math = static_cast<int>(std::stoll(cells[i++]));
  a.seeds = static_cast<size_t>(std::stoull(cells[i++]));
  a.skip_reason = cells[i++];
  a.final_acc_mean = parse_metric(cells[i++]);
  a.final_acc_std = parse_metric(cells[i++]);
  a.final_loss_mean = parse_metric(cells[i++]);
  a.final_loss_std = parse_metric(cells[i++]);
  a.min_loss_mean = parse_metric(cells[i++]);
  a.mi_auc = parse_metric(cells[i++]);
  a.inv_rel_error = parse_metric(cells[i++]);
  a.inv_label_acc = parse_metric(cells[i++]);
  return a;
}

void write_csv(const std::string& path, std::span<const CellArtifact> cells) {
  csv::Writer w(path, csv_header());
  for (const CellArtifact& a : cells) w.row_strings(csv_cells(a));
}

std::vector<CellArtifact> read_csv(const std::string& path) {
  const csv::Table table = csv::read(path);
  require(table.header == csv_header(),
          "campaign: '" + path + "' does not carry the campaign CSV schema");
  std::vector<CellArtifact> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) out.push_back(from_csv_cells(row));
  return out;
}

namespace {

/// JSON string literal; fields were produced by sanitize_field so no
/// escapes are ever needed, but guard against future payloads anyway.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += ';';
    else if (static_cast<unsigned char>(c) < 0x20) out += ' ';
    else out += c;
  }
  out += '"';
  return out;
}

/// JSON has no NaN/inf literals; encode them as strings, numbers as-is.
std::string json_metric(double v) {
  const std::string s = format_metric(v);
  if (std::isnan(v) || std::isinf(v)) return "\"" + s + "\"";
  return s;
}

}  // namespace

void write_json(const std::string& path, const std::string& signature,
                std::span<const CellArtifact> cells) {
  std::string body;
  body += "{\n";
  body += "  \"campaign\": 1,\n";
  body += "  \"signature\": " + json_string(signature) + ",\n";
  body += "  \"cells\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellArtifact& a = cells[i];
    body += i ? ",\n    {" : "\n    {";
    body += "\"cell\": " + std::to_string(a.cell);
    body += ", \"id\": " + json_string(a.id);
    body += ", \"gar\": " + json_string(a.gar);
    body += ", \"attack\": " + json_string(a.attack);
    body += ", \"eps\": " + json_metric(a.eps);
    body += ", \"participation\": " + json_string(a.participation);
    body += ", \"topology\": " + json_string(a.topology);
    body += ", \"channel\": " + json_string(a.channel);
    body += ", \"churn\": " + json_string(a.churn);
    body += ", \"prune\": " + json_string(a.prune);
    body += ", \"fast_math\": " + std::to_string(a.fast_math);
    body += ", \"seeds\": " + std::to_string(a.seeds);
    body += ", \"skip_reason\": " + json_string(a.skip_reason);
    body += ", \"final_acc_mean\": " + json_metric(a.final_acc_mean);
    body += ", \"final_acc_std\": " + json_metric(a.final_acc_std);
    body += ", \"final_loss_mean\": " + json_metric(a.final_loss_mean);
    body += ", \"final_loss_std\": " + json_metric(a.final_loss_std);
    body += ", \"min_loss_mean\": " + json_metric(a.min_loss_mean);
    body += ", \"mi_auc\": " + json_metric(a.mi_auc);
    body += ", \"inv_rel_error\": " + json_metric(a.inv_rel_error);
    body += ", \"inv_label_acc\": " + json_metric(a.inv_label_acc);
    body += "}";
  }
  body += cells.empty() ? "],\n" : "\n  ],\n";
  body += "  \"count\": " + std::to_string(cells.size()) + "\n";
  body += "}\n";

  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  require(f != nullptr, "campaign: cannot open '" + path + "' for writing");
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace dpbyz::campaign
