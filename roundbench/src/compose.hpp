// compose.hpp — the synchronous training round re-composed from public
// library calls, one span per call.
//
// compose_run reproduces Trainer::run at pipeline_depth = 0 with full
// participation: the same RNG derivations as HonestWorker
// (root.derive("worker-i").derive("sampling" | "dp-noise")), the same
// stage order (sample, loss, gradient, clip, noise per worker, then
// forge, aggregate, apply, eval) and the same GAR construction path.  Its
// final parameters and loss series must equal Trainer::run's bit for bit
// — that equality is what lets the traced per-layer split stand for the
// arithmetic the untraced end-to-end metrics time.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "math/gradient_batch.hpp"
#include "models/model.hpp"
#include "trace.hpp"

namespace roundbench {

struct ComposedRun {
  dpbyz::Vector final_parameters;
  std::vector<double> train_loss;  ///< mean honest batch loss per round
  double final_accuracy = 0.0;
  /// Heap allocations per round after `kWarmupRounds` rounds.
  double allocs_per_round = 0.0;
  double wall_s = 0.0;
  /// The last round's submissions and aggregate (inputs for the probes
  /// of layers a depth-0 flat round does not call).
  dpbyz::GradientBatch last_batch;
  dpbyz::Vector last_aggregate;
  size_t honest_rows = 0;
};

inline constexpr size_t kWarmupRounds = 3;

/// Throws std::invalid_argument for configs outside the re-composed
/// subset (depth > 0, partial participation, churn, dropout, worker
/// momentum, partitioned data, non-constant schedule, checkpoints).
ComposedRun compose_run(const dpbyz::ExperimentConfig& config,
                        const dpbyz::Model& model, const dpbyz::Dataset& train,
                        const dpbyz::Dataset& test, Tracer& tracer);

}  // namespace roundbench
