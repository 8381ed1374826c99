// roundbench — one training round of DP-SGD under a robust GAR, timed
// end to end and split by layer.
//
//   roundbench --workload paper_phishing|wide_ring|campaign_grid
//              --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "repetitions", "top_layer",
// "failures", "metrics": {name: value}, "as_measured": {name: value}}.  run.py
// attaches the units from BENCHMARK.json and the provenance.  Exits 1
// when a correctness check failed, 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: roundbench --workload paper_phishing|wide_ring|campaign_grid "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  roundbench::Options o;
  o.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(o.seconds > 0)) return usage();

  roundbench::Outcome out;
  try {
    if (o.workload == "paper_phishing") {
      out = roundbench::paper_phishing(o);
    } else if (o.workload == "wide_ring") {
      out = roundbench::wide_ring(o);
    } else if (o.workload == "campaign_grid") {
      out = roundbench::campaign_grid(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& why : out.failures)
    std::fprintf(stderr, "roundbench: check failed: %s\n", why.c_str());
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"repetitions\": " + std::to_string(out.repetitions);
  line += ", \"top_layer\": " + json_string(out.top_layer);
  line += ", \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); ++i)
    line += (i ? ", " : "") + json_string(out.failures[i]);
  line += "], \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(out.metrics[i].first) + ": " +
            roundbench::number(out.metrics[i].second);
  line += "}, \"as_measured\": {";
  for (size_t i = 0; i < out.as_measured.size(); ++i)
    line += (i ? ", " : "") + json_string(out.as_measured[i].first) + ": " +
            roundbench::number(out.as_measured[i].second);
  line += "}}";
  std::printf("%s\n", line.c_str());
  return out.failed == 0 ? 0 : 1;
}
