#include "theory/vn_ratio.hpp"

#include <cmath>
#include <limits>  // boundary-audit fix: numeric_limits was only reached
                   // transitively, and the inf fallback below depends on it

#include "dp/gaussian_mechanism.hpp"
#include "math/statistics.hpp"
#include "models/clipping.hpp"
#include "utils/errors.hpp"

namespace dpbyz::theory {

VnEstimate estimate_vn_ratio(const Model& model, const Dataset& data, const Vector& w,
                             size_t batch_size, double clip_norm,
                             const NoiseMechanism& mechanism, size_t num_samples,
                             Rng& rng) {
  require(num_samples >= 2, "estimate_vn_ratio: need at least 2 samples");
  require(data.size() > 0, "estimate_vn_ratio: empty dataset");

  std::vector<Vector> samples;
  samples.reserve(num_samples);
  std::vector<size_t> batch(batch_size);
  Vector g(model.dim());
  for (size_t s = 0; s < num_samples; ++s) {
    for (size_t& i : batch) i = rng.uniform_index(data.size());
    model.batch_gradient_into(w, data, batch, g);
    clip_l2_inplace(g, clip_norm);
    mechanism.perturb_into(g, rng, samples.emplace_back(g.size()));
  }

  VnEstimate out{};
  out.variance = stats::total_variance(samples);
  // Debias the mean-norm estimate: E||sample_mean||^2 = ||E G||^2 + Var/M,
  // so subtract the Monte-Carlo term.  Without this, high-noise cells
  // (small b, small eps) overestimate the denominator and underestimate
  // the ratio by a factor that has nothing to do with Eq. 8.
  const double raw_mean_norm_sq = vec::norm_sq(vec::mean(samples));
  const double mc_bias = out.variance / static_cast<double>(samples.size());
  out.mean_norm = std::sqrt(std::max(0.0, raw_mean_norm_sq - mc_bias));
  out.ratio = out.mean_norm > 0 ? std::sqrt(out.variance) / out.mean_norm
                                : std::numeric_limits<double>::infinity();
  return out;
}

double dp_variance_term(size_t d, double g_max, size_t batch_size, double epsilon,
                        double delta) {
  const double s = GaussianMechanism::noise_scale(epsilon, delta, g_max, batch_size);
  return static_cast<double>(d) * s * s;
}

double noisy_vn_ratio(double clean_variance, double mean_norm, size_t d, double g_max,
                      size_t batch_size, double epsilon, double delta) {
  require(mean_norm > 0, "noisy_vn_ratio: mean norm must be positive");
  require(clean_variance >= 0, "noisy_vn_ratio: negative variance");
  const double total = clean_variance + dp_variance_term(d, g_max, batch_size, epsilon, delta);
  return std::sqrt(total) / mean_norm;
}

}  // namespace dpbyz::theory
