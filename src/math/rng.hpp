// rng.hpp — deterministic random-number generation with seed derivation.
//
// Reproducibility is a hard requirement of the paper's evaluation ("each
// experimental setup is repeated 5 times, with specified seeds in 1 to 5").
// Every stochastic component (batch sampling, DP noise, dataset synthesis,
// attack randomness) draws from its own Rng derived from the experiment
// seed via a splitmix64-based key derivation, so that e.g. enabling DP
// noise does not perturb the batch-sampling stream of an otherwise
// identical run — configs stay comparable pointwise.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <random>
#include <string>

#include "math/vector_ops.hpp"

namespace dpbyz {

/// Deterministic RNG wrapper around std::mt19937_64 with hierarchical
/// seed derivation.
class Rng {
 public:
  /// Construct from a raw 64-bit seed.
  explicit Rng(uint64_t seed);

  /// Derive a child RNG keyed by a string label.  The same (seed, label)
  /// pair always yields the same child stream; distinct labels yield
  /// decorrelated streams.  Deriving does not advance this RNG.
  Rng derive(const std::string& label) const;

  /// Derive a child keyed by a numeric index (e.g. worker id, step).
  Rng derive(uint64_t index) const;

  /// Uniform integer in [0, n) — n must be positive.
  size_t uniform_index(size_t n);

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal draw N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Laplace(mu, scale) draw via inverse CDF.  Always finite: the
  /// uniform draw is inclusive at -1/2 (where the raw inverse CDF is
  /// -inf), and that boundary is clamped — see laplace_from_uniform.
  double laplace(double mu, double scale);

  /// The deterministic inverse-CDF transform behind laplace():
  /// X = mu - scale * sign(u) * log(1 - 2|u|) for u in [-1/2, 1/2], with
  /// the log argument clamped to the smallest positive normal double so
  /// the boundary draws |u| = 1/2 map to finite tail values instead of
  /// ±inf.  Exposed so the boundary behaviour is directly testable.
  static double laplace_from_uniform(double u, double mu, double scale);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Vector of iid N(0, stddev^2) entries — the DP Gaussian noise shape
  /// y ~ N(0, I_d * s^2) from Eq. (6) of the paper.
  Vector normal_vector(size_t d, double stddev);

  /// Fill `out` with iid N(0, stddev^2) entries — the allocation-free
  /// variant; draw-for-draw identical to normal_vector (the RandomGaussian
  /// attack forges rows in place through this).
  void normal_fill(std::span<double> out, double stddev);

  /// Fisher–Yates shuffle of an index range [0, n), returned as a vector.
  std::vector<size_t> permutation(size_t n);

  /// The underlying engine, for std <random> distributions in user code.
  std::mt19937_64& engine() { return engine_; }

  uint64_t seed() const { return seed_; }

  /// Checkpoint round trip.  An Rng's observable state is exactly
  /// (seed_, engine_): every distribution is constructed fresh per draw,
  /// so serialising the engine via its operator<< (a portable decimal
  /// rendering of the Mersenne state, mandated by the standard) restores
  /// the stream draw-for-draw.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  uint64_t seed_;
  std::mt19937_64 engine_;
};

/// splitmix64 mixing function (public-domain constant schedule); used for
/// seed derivation so nearby seeds produce decorrelated streams.
uint64_t splitmix64(uint64_t x);

}  // namespace dpbyz
