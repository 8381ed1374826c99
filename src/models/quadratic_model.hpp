// quadratic_model.hpp — the strongly-convex task from Theorem 1's proof.
//
// Q(w) = 1/2 E_{x~D} ||w - x||^2 with D = N(x_bar, (sigma^2/d) I_d).
// This cost is lambda = 1 strongly convex and mu = 1 Lipschitz-smooth,
// its minimizer is w* = x_bar, and Q(w) - Q* = 1/2 ||w - x_bar||^2.
// Per-sample gradient: grad Q(w, x) = w - x, so the stochastic gradient
// noise has total variance sigma^2 — exactly the construction used for
// the Cramér–Rao lower bound in the paper.
#pragma once

#include "models/model.hpp"

namespace dpbyz {

/// Gaussian-mean estimation phrased as a Model.  The dataset rows are the
/// observations x; labels are unused.
class QuadraticModel final : public Model {
 public:
  /// `optimum` is x_bar (kept so excess loss can be computed exactly).
  QuadraticModel(size_t dim, Vector optimum);

  size_t dim() const override { return dim_; }
  const Vector& optimum() const { return optimum_; }

  double batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                      std::span<const size_t> batch,
                                      std::span<double> out) const override;
  void batch_gradient_into(const Vector& w, const Dataset& data,
                           std::span<const size_t> batch,
                           std::span<double> out) const override;

  /// Empirical loss 1/(2|batch|) sum ||w - x_i||^2.
  double batch_loss(const Vector& w, const Dataset& data,
                    std::span<const size_t> batch) const override;

  /// Exact excess loss Q(w) - Q* = 1/2 ||w - x_bar||^2 (population value,
  /// independent of any sample).  This is the quantity Theorem 1 bounds.
  double excess_loss(const Vector& w) const;

  /// Strong-convexity modulus lambda (Assumption 2): 1 for this task.
  static constexpr double lambda() { return 1.0; }
  /// Gradient Lipschitz constant mu (Assumption 3): 1 for this task.
  static constexpr double mu() { return 1.0; }

 private:
  /// The one row loop behind the three batch entries: the loss term
  /// (kLoss) and the batch-mean accumulation (kGradient) share each row
  /// visit.  Returns the mean loss and writes the gradient into `out`.
  template <bool kLoss, bool kGradient>
  double row_pass(const Vector& w, const Dataset& data, std::span<const size_t> batch,
                  std::span<double> out) const;

  size_t dim_;
  Vector optimum_;
};

}  // namespace dpbyz
