// mechanism.hpp — the local-randomizer interface.
//
// In the paper's honest-but-curious model (§2.3), "every worker W_i
// designs its own local randomizer M_i to send a perturbed version of its
// gradient to the untrusted server"; the system is (eps, delta)-DP iff
// every local randomizer is.  A NoiseMechanism encapsulates that
// randomizer: given a clipped gradient, it writes the sanitized vector
// o_t = g_t + y_t (Eq. 7) into caller storage.
#pragma once

#include <memory>
#include <string>

#include "math/rng.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// Local DP randomizer applied by each honest worker before sending.
class NoiseMechanism {
 public:
  virtual ~NoiseMechanism() = default;

  /// Sanitize a gradient in place into `out` (same length): out = g + y
  /// with fresh noise y from `rng` — the worker pipeline's hot path,
  /// where `out` is the worker's row of the round's GradientBatch arena.
  /// Performs no heap allocation.  `out` may alias `gradient`.
  virtual void perturb_into(std::span<const double> gradient, Rng& rng,
                            std::span<double> out) const = 0;

  /// Per-coordinate standard deviation of the injected noise (the `s` of
  /// Eq. 6 for the Gaussian mechanism; sqrt(2)*scale for Laplace).
  virtual double noise_stddev() const = 0;

  /// Total noise variance added to a d-dimensional gradient:
  /// E||y||^2 = d * noise_stddev()^2.  This is the term that enters the
  /// VN-ratio numerator in Eq. (8).
  double total_noise_variance(size_t d) const {
    const double s = noise_stddev();
    return static_cast<double>(d) * s * s;
  }

  /// Human-readable description for logs/tables.
  virtual std::string describe() const = 0;
};

/// The degenerate "no privacy" mechanism: identity, zero noise.  Using an
/// explicit object (instead of a null pointer) keeps worker code uniform.
class NoNoise final : public NoiseMechanism {
 public:
  void perturb_into(std::span<const double> gradient, Rng&,
                    std::span<double> out) const override {
    if (out.data() != gradient.data()) vec::copy(gradient, out);
  }
  double noise_stddev() const override { return 0.0; }
  std::string describe() const override { return "none"; }
};

}  // namespace dpbyz
