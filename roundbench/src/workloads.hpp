// workloads.hpp — the benchmark's three workloads.
//
// Every workload is a closed loop: a training run starts round t + 1
// only after round t is applied, and the campaign starts a cell only
// when one of its two pool threads frees.  None uses more than three
// threads.  With trace off a workload times the library's own entry
// points (Trainer::run, campaign::run_campaign) and reports the
// end-to-end metrics; with trace on it re-composes the same work from
// public calls, checks the re-composition is bit-identical to the
// untraced program, and reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace roundbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      ///< a few rounds and a 2-cell grid
  std::string out_dir;     ///< trace spans and campaign artifacts go here
};

struct Outcome {
  size_t attempted = 0;    ///< training runs or campaign cells attempted
  size_t failed = 0;       ///< of those, the ones that failed a check
  size_t repetitions = 0;  ///< timed repetitions behind the medians
  std::vector<std::pair<std::string, double>> metrics;
  /// End-to-end figures as measured on this host, before rescaling to the
  /// nominal host (host_speed.hpp), and the median host speed.
  std::vector<std::pair<std::string, double>> as_measured;
  std::vector<std::string> failures;
  std::string top_layer;   ///< traced runs: the layer with the most self time

  void set(const std::string& name, double value) { metrics.emplace_back(name, value); }
  /// Record a failed check (the attempt it belongs to counts as failed).
  void fail(const std::string& why) {
    failures.push_back(why);
    ++failed;
  }
};

Outcome paper_phishing(const Options& options);
Outcome wide_ring(const Options& options);
Outcome campaign_grid(const Options& options);

}  // namespace roundbench
