// trace.hpp — span recorder, allocation counter and small statistics for
// the round benchmark.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions; nothing inside the library is
// instrumented.  A span is (name, parent, round, start, end); spans are
// appended to a buffer reserved up front, so recording allocates nothing
// inside a measured round.  A layer is the part of a span name before
// the first '.', which is also the library directory the wrapped call
// lives in (data, models, dp, attacks, aggregation, core, net, privacy,
// campaign).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace roundbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by the whole process so far (alloc_count.cpp
/// replaces the global operator new with a counting one).
uint64_t allocations();

/// Every span name the benchmark records.  The layer is the prefix.
enum SpanName : uint16_t {
  kRound,        // core.round: one synchronous training round
  kFill,         // core.fill: every honest pipeline plus the forgery
  kSample,       // data.sample: IidSampler::next_into
  kLoss,         // models.loss: Model::batch_loss
  kGradient,     // models.gradient: Model::batch_gradient_into
  kClip,         // models.clip: clip_l2_inplace
  kNoise,        // dp.noise: NoiseMechanism::perturb_into
  kForge,        // attacks.forge: Attack::forge_into
  kAggregate,    // aggregation.aggregate: ParameterServer::aggregate_with
  kApply,        // core.apply: ParameterServer::apply
  kEval,         // models.eval: Model::accuracy
  kPass,         // campaign.pass: one whole grid
  kSetup,        // campaign.setup: PhishingExperiment + expand_grid
  kCell,         // campaign.cell: one admissible cell
  kTrain,        // core.train: PhishingExperiment::run_seeds_parallel
  kMembership,   // privacy.mi: membership_inference
  kInversion,    // privacy.inversion: attack_linear_model
  kPersist,      // campaign.persist: save_manifest
  kArtifacts,    // campaign.artifacts: write_csv + write_json
  kSpanNames
};

const char* span_name(SpanName name);
/// Layer of a span name: "models" for "models.loss".
std::string span_layer(SpanName name);

/// The layers, in the library's dependency order.
const std::vector<std::string>& layers();

struct Span {
  uint16_t name = 0;
  int32_t parent = -1;  ///< index into the same buffer; -1 = root
  uint32_t round = 0;   ///< 1-based round, 0 outside rounds
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span buffer with an implicit parent stack.
class Tracer {
 public:
  void reserve(size_t spans) { spans_.reserve(spans); }
  void clear() {
    spans_.clear();
    current_ = -1;
  }

  int32_t open(SpanName name, uint32_t round) {
    const auto index = static_cast<int32_t>(spans_.size());
    spans_.push_back({static_cast<uint16_t>(name), current_, round, now_ns(), 0});
    current_ = index;
    return index;
  }
  void close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }
  /// Append a finished span with an explicit parent (multi-threaded
  /// callers time locally and append under their own lock).
  int32_t add(SpanName name, int32_t parent, uint32_t round, int64_t start,
              int64_t end) {
    spans_.push_back({static_cast<uint16_t>(name), parent, round, start, end});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name, uint32_t round)
      : tracer_(tracer), index_(tracer.open(name, round)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Durations and self times folded out of span buffers, per span name.
struct SpanStats {
  std::vector<std::vector<double>> durations_ns{kSpanNames};
  std::vector<double> self_ns = std::vector<double>(kSpanNames, 0.0);
  /// Self time of the root spans (core.round, campaign.pass): the part
  /// of a round no child span covers.
  double unattributed_ns = 0.0;
  double round_ns = 0.0;  ///< summed core.round durations

  /// Fold one buffer in.  A root span's self time counts as unattributed
  /// time, not as its layer's.
  void fold(const std::vector<Span>& spans);
  double median_ns(SpanName name) const;
  double total_ns(SpanName name) const;
  /// Self time per layer (root spans excluded).
  std::vector<double> layer_self_ns() const;
};

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// "%.17g": every digit of a double, as measured.
std::string number(double v);

}  // namespace roundbench
