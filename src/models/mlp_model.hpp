// mlp_model.hpp — one-hidden-layer perceptron (the non-convex case of §3).
//
// Section 3 of the paper makes no convexity assumption and argues the
// DP/Byzantine incompatibility for *any* model size d; its running
// example is a small neural network (d ~ 1e5).  This model provides a
// genuinely non-convex task whose parameter count scales with the hidden
// width, so the dimension-sweep bench can measure the d-dependence in an
// actual training run:
//
//     z1 = W1 x + b1,  a1 = tanh(z1),  z2 = w2 . a1 + b2,  p = sigma(z2),
//     loss = (p - y)^2                      (the paper's MSE-on-sigmoid)
//
// d = hidden*(features + 2) + 1.  Gradients are exact closed-form
// backprop; no autodiff.  Zero initialization is degenerate for an MLP
// (symmetric hidden units, zero signal through w2), so the model
// overrides initial_parameters() with a deterministic small random init.
#pragma once

#include "models/model.hpp"

namespace dpbyz {

class MlpModel final : public Model {
 public:
  /// `init_seed` fixes the deterministic initialization (and hence the
  /// whole training trajectory for a given config seed).
  MlpModel(size_t num_features, size_t hidden_units, uint64_t init_seed = 1);

  size_t dim() const override { return dim_; }
  size_t hidden_units() const { return hidden_; }

  double batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                      std::span<const size_t> batch,
                                      std::span<double> out) const override;
  void batch_gradient_into(const Vector& w, const Dataset& data,
                           std::span<const size_t> batch,
                           std::span<double> out) const override;
  double batch_loss(const Vector& w, const Dataset& data,
                    std::span<const size_t> batch) const override;
  double accuracy(const Vector& w, const Dataset& data) const override;

  /// Deterministic N(0, 0.1^2) init for weights, zeros for biases.
  Vector initial_parameters() const override;

  /// Forward pass returning p = sigma(z2) for one sample.
  double predict(const Vector& w, std::span<const double> x) const;

 private:
  // Parameter layout within the flat vector w:
  //   [ W1 row-major (hidden x features) | b1 (hidden) | w2 (hidden) | b2 ]
  size_t w1_offset() const { return 0; }
  size_t b1_offset() const { return hidden_ * features_; }
  size_t w2_offset() const { return b1_offset() + hidden_; }
  size_t b2_offset() const { return w2_offset() + hidden_; }

  /// Forward to (a1, z2); a1 must have size hidden_.
  double forward(const Vector& w, std::span<const double> x, Vector& a1) const;

  /// The one batch loop behind the three batch entries: one forward pass
  /// per row, then the loss term (kLoss) and the backprop (kGradient).
  /// Returns the mean loss and writes the mean gradient into `g`.
  template <bool kLoss, bool kGradient>
  double batch_pass(const Vector& w, const Dataset& data, std::span<const size_t> batch,
                    std::span<double> g) const;

  /// Per-thread hidden-activation scratch sized to hidden_.  thread_local
  /// so concurrent worker pipelines never share it; allocation-free after
  /// each thread's first call at this width.
  Vector& hidden_scratch() const;

  size_t features_;
  size_t hidden_;
  size_t dim_;
  uint64_t init_seed_;
};

}  // namespace dpbyz
