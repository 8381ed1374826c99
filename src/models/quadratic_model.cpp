#include "models/quadratic_model.hpp"

#include "utils/errors.hpp"

namespace dpbyz {

QuadraticModel::QuadraticModel(size_t dim, Vector optimum)
    : dim_(dim), optimum_(std::move(optimum)) {
  require(dim_ > 0, "QuadraticModel: dim must be positive");
  require(optimum_.size() == dim_, "QuadraticModel: optimum dimension mismatch");
}

template <bool kLoss, bool kGradient>
double QuadraticModel::row_pass(const Vector& w, const Dataset& data,
                                std::span<const size_t> batch,
                                std::span<double> out) const {
  require(!batch.empty(), "QuadraticModel: empty batch");
  require(w.size() == dim_, "QuadraticModel: wrong dimension");
  require(data.dim() == dim_, "QuadraticModel: dataset dimension mismatch");
  // grad Q(w, x) = w - x; batch gradient = w - mean(batch x).  The batch
  // mean accumulates in `out` itself (no scratch vector), then flips to
  // w - mean coordinate-wise — the same subtraction the allocating
  // version performed, so the values are bit-identical.
  if constexpr (kGradient) vec::fill(out, 0.0);
  double acc = 0.0;
  for (size_t i : batch) {
    const auto x = data.x(i);
    double dist_sq = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      if constexpr (kGradient) out[j] += x[j];
      if constexpr (kLoss) {
        const double diff = w[j] - x[j];
        dist_sq += diff * diff;
      }
    }
    acc += 0.5 * dist_sq;
  }
  const double b = static_cast<double>(batch.size());
  if constexpr (kGradient) {
    vec::scale_inplace(out, 1.0 / b);
    for (size_t j = 0; j < dim_; ++j) out[j] = w[j] - out[j];
  }
  return acc / b;
}

double QuadraticModel::batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                                    std::span<const size_t> batch,
                                                    std::span<double> out) const {
  require(out.size() == dim_, "QuadraticModel::batch_loss_and_gradient: wrong output dimension");
  return row_pass<true, true>(w, data, batch, out);
}

void QuadraticModel::batch_gradient_into(const Vector& w, const Dataset& data,
                                         std::span<const size_t> batch,
                                         std::span<double> out) const {
  require(out.size() == dim_, "QuadraticModel::batch_gradient_into: wrong output dimension");
  row_pass<false, true>(w, data, batch, out);
}

double QuadraticModel::batch_loss(const Vector& w, const Dataset& data,
                                  std::span<const size_t> batch) const {
  return row_pass<true, false>(w, data, batch, {});
}

double QuadraticModel::excess_loss(const Vector& w) const {
  require(w.size() == dim_, "QuadraticModel::excess_loss: wrong dimension");
  return 0.5 * vec::dist_sq(w, optimum_);
}

}  // namespace dpbyz
