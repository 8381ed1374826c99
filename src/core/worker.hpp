// worker.hpp — the honest worker's per-step pipeline.
//
// At each step t an honest worker W_i (paper §2.1 + §2.3 + §5.1):
//   1. samples a batch xi_t^(i) of b indices from its training data,
//   2. computes the averaged mini-batch gradient h(xi) (Eq. 4) and, in
//      the same pass over the batch rows, the batch's mean loss,
//   3. clips it to L2 norm G_max (sensitivity control, Assumption 1),
//   4. adds DP noise via its local randomizer (Eq. 6/7),
//   5. sends the result to the parameter server.
//
// Byzantine workers are *not* modeled as a Worker subclass: the paper's
// adversary colludes and forges a common gradient from global knowledge,
// which is the Attack interface's job (attacks/attack.hpp).  The trainer
// composes both.
#pragma once

#include <iosfwd>
#include <memory>

#include "data/dataset.hpp"
#include "data/samplers.hpp"
#include "dp/mechanism.hpp"
#include "math/rng.hpp"
#include "models/model.hpp"

namespace dpbyz {

class HonestWorker {
 public:
  /// `mechanism` may be NoNoise for non-private runs.  The worker keeps
  /// references to model/data (owned by the experiment) and owns its
  /// sampler and RNG streams.
  /// `clip` = false skips step 3 (see ExperimentConfig::clip_enabled);
  /// `clip_norm` is still required as the mechanism's calibration bound.
  /// `momentum` > 0 enables worker-side gradient averaging (§7 direction):
  /// the worker sends m_t = momentum * m_{t-1} + clipped gradient.
  HonestWorker(const Model& model, const Dataset& train, size_t batch_size,
               double clip_norm, const NoiseMechanism& mechanism, Rng rng,
               bool clip = true, double momentum = 0.0);

  /// Run one full step pipeline at parameters `w` and write the sanitized
  /// gradient o_t^(i) into `out` — typically this worker's row of the
  /// round's GradientBatch arena, so the "send" is the in-place write.
  /// The worker has no notion of *which* row it owns: under the round
  /// engine's participation compaction the same worker lands on a
  /// different (compacted) row each round, and under pipeline_depth = 1
  /// `w` is the engine's stale parameter snapshot rather than the
  /// server's live vector.
  /// Allocation-free after the first call: the batch indices and the
  /// clean gradient live in reused member buffers, and every stage
  /// (model, clip, mechanism) writes through _into variants.  Distinct
  /// workers may run submit_into concurrently (the threaded trainer
  /// does); a single worker's calls must stay sequential.
  void submit_into(const Vector& w, std::span<double> out);

  /// Mini-batch loss at the most recent submit_into()'s batch and parameters —
  /// the paper's per-step training metric ("the average loss achieved by
  /// the model over the training datapoints sampled by the honest
  /// workers", §5.1).
  double last_batch_loss() const { return last_batch_loss_; }

  /// The clipped, pre-noise gradient of the last submit_into() (diagnostics:
  /// VN-ratio estimation needs the clean gradient distribution).
  const Vector& last_clean_gradient() const { return last_clean_gradient_; }

  /// Checkpoint round trip of everything that shapes future submits: the
  /// sampling and noise RNG streams plus the momentum velocity.  The
  /// last-submit diagnostics (loss, clean gradient) are recomputed on the
  /// next submit and are deliberately not captured.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  const Model& model_;
  const Dataset& train_;
  size_t batch_size_;
  double clip_norm_;
  const NoiseMechanism& mechanism_;
  bool clip_;
  double momentum_;
  Vector velocity_;
  IidSampler sampler_;
  Rng sample_rng_;
  Rng noise_rng_;
  double last_batch_loss_ = 0.0;
  /// Reused across steps: sized to dim() once, then written in place by
  /// batch_loss_and_gradient_into / clip / momentum every submit.
  Vector last_clean_gradient_;
  /// Reused batch-index buffer (sampler_.next_into target).
  std::vector<size_t> batch_;
};

}  // namespace dpbyz
