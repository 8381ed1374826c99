#include "privacy/gradient_inversion.hpp"

#include <cmath>

#include "math/rng.hpp"
#include "models/linear_model.hpp"
#include "utils/errors.hpp"

namespace dpbyz::privacy {

std::optional<InversionResult> invert_single_gradient(const Vector& gradient,
                                                      double min_bias) {
  require(gradient.size() >= 2, "invert_single_gradient: need features + bias");
  const double dz = gradient.back();
  if (std::abs(dz) < min_bias) return std::nullopt;

  InversionResult out;
  out.bias_coordinate = dz;
  out.reconstructed_features.resize(gradient.size() - 1);
  for (size_t j = 0; j + 1 < gradient.size(); ++j)
    out.reconstructed_features[j] = gradient[j] / dz;
  // For every loss in this library dz has the sign of (prediction - y);
  // predictions live in (0, 1) around 0.5, so dz < 0 indicates y = 1.
  out.inferred_label = dz < 0.0;
  return out;
}

std::optional<InversionResult> invert_batch_gradient(const Vector& gradient,
                                                     double min_bias) {
  return invert_single_gradient(gradient, min_bias);
}

double reconstruction_error(const Vector& reconstructed, std::span<const double> truth) {
  require(reconstructed.size() == truth.size(), "reconstruction_error: size mismatch");
  double num = 0.0, den = 0.0;
  for (size_t j = 0; j < truth.size(); ++j) {
    const double diff = reconstructed[j] - truth[j];
    num += diff * diff;
    den += truth[j] * truth[j];
  }
  if (den == 0.0) return std::sqrt(num);
  return std::sqrt(num / den);
}

InversionReport attack_linear_model(const Dataset& data, const Vector& w,
                                    double noise_stddev, size_t count, uint64_t seed) {
  require(data.size() > 0 && data.labeled(), "attack_linear_model: need labeled data");
  require(w.size() == data.dim() + 1, "attack_linear_model: w must be features+bias");
  const LinearModel model(data.dim(), LinearLoss::kMseOnSigmoid);

  Rng rng(seed);
  Rng sample_rng = rng.derive("victim-sampling");
  Rng noise_rng = rng.derive("dp-noise");

  InversionReport report;
  double error_acc = 0.0;
  size_t labels_right = 0;
  Vector g(model.dim());
  Vector noise(model.dim());
  for (size_t i = 0; i < count; ++i) {
    const size_t victim = sample_rng.uniform_index(data.size());
    model.batch_gradient_into(w, data, std::span<const size_t>(&victim, 1), g);
    if (noise_stddev > 0.0) {
      noise_rng.normal_fill(noise, noise_stddev);
      vec::add_inplace(g, noise);
    }
    ++report.attempted;

    const auto inv = invert_single_gradient(g, 1e-9);
    if (!inv.has_value()) continue;
    ++report.invertible;
    error_acc += reconstruction_error(inv->reconstructed_features, data.x(victim));
    const bool actual = data.y(victim) > 0.5;
    if (inv->inferred_label == actual) ++labels_right;
  }
  if (report.invertible > 0) {
    report.mean_relative_error = error_acc / static_cast<double>(report.invertible);
    report.label_accuracy =
        static_cast<double>(labels_right) / static_cast<double>(report.invertible);
  }
  return report;
}

}  // namespace dpbyz::privacy
