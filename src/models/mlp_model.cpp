#include "models/mlp_model.hpp"

#include <cmath>

#include "math/rng.hpp"
#include "models/linear_model.hpp"  // sigmoid
#include "utils/errors.hpp"

namespace dpbyz {

MlpModel::MlpModel(size_t num_features, size_t hidden_units, uint64_t init_seed)
    : features_(num_features),
      hidden_(hidden_units),
      dim_(hidden_units * (num_features + 2) + 1),
      init_seed_(init_seed) {
  require(num_features > 0, "MlpModel: need at least one feature");
  require(hidden_units > 0, "MlpModel: need at least one hidden unit");
}

Vector MlpModel::initial_parameters() const {
  Rng rng(init_seed_);
  Rng weights = rng.derive("mlp-init");
  Vector w(dim_, 0.0);
  // Small random weights break hidden-unit symmetry; biases start at 0.
  for (size_t i = 0; i < hidden_ * features_; ++i)
    w[w1_offset() + i] = weights.normal(0.0, 0.1);
  for (size_t i = 0; i < hidden_; ++i) w[w2_offset() + i] = weights.normal(0.0, 0.1);
  return w;
}

double MlpModel::forward(const Vector& w, std::span<const double> x, Vector& a1) const {
  require(w.size() == dim_, "MlpModel: wrong parameter dimension");
  require(x.size() == features_, "MlpModel: wrong feature dimension");
  check_internal(a1.size() == hidden_, "MlpModel::forward: bad activation buffer");
  double z2 = w[b2_offset()];
  for (size_t h = 0; h < hidden_; ++h) {
    double z1 = w[b1_offset() + h];
    const double* row = w.data() + w1_offset() + h * features_;
    for (size_t j = 0; j < features_; ++j) z1 += row[j] * x[j];
    a1[h] = std::tanh(z1);
    z2 += w[w2_offset() + h] * a1[h];
  }
  return z2;
}

Vector& MlpModel::hidden_scratch() const {
  // One buffer per thread: the threaded trainer runs one worker pipeline
  // per thread, each of which needs its own activation scratch.  resize()
  // is a no-op once the thread has warmed up at this hidden width.
  thread_local Vector a1;
  a1.resize(hidden_);
  return a1;
}

double MlpModel::predict(const Vector& w, std::span<const double> x) const {
  return sigmoid(forward(w, x, hidden_scratch()));
}

template <bool kLoss, bool kGradient>
double MlpModel::batch_pass(const Vector& w, const Dataset& data,
                            std::span<const size_t> batch, std::span<double> g) const {
  if constexpr (kGradient) vec::fill(g, 0.0);
  Vector& a1 = hidden_scratch();
  double acc = 0.0;
  for (size_t i : batch) {
    const auto x = data.x(i);
    const double y = data.y(i);
    const double p = sigmoid(forward(w, x, a1));
    if constexpr (kLoss) {
      const double diff = p - y;
      acc += diff * diff;
    }
    if constexpr (kGradient) {
      const double dz2 = 2.0 * (p - y) * p * (1.0 - p);
      g[b2_offset()] += dz2;
      for (size_t h = 0; h < hidden_; ++h) {
        g[w2_offset() + h] += dz2 * a1[h];
        // d(tanh)/dz = 1 - tanh^2.
        const double dz1 = dz2 * w[w2_offset() + h] * (1.0 - a1[h] * a1[h]);
        g[b1_offset() + h] += dz1;
        double* row = g.data() + w1_offset() + h * features_;
        for (size_t j = 0; j < features_; ++j) row[j] += dz1 * x[j];
      }
    }
  }
  const double b = static_cast<double>(batch.size());
  if constexpr (kGradient) vec::scale_inplace(g, 1.0 / b);
  return acc / b;
}

double MlpModel::batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                              std::span<const size_t> batch,
                                              std::span<double> g) const {
  require(!batch.empty(), "MlpModel::batch_loss_and_gradient: empty batch");
  require(data.labeled(), "MlpModel::batch_loss_and_gradient: dataset must be labeled");
  require(g.size() == dim_, "MlpModel::batch_loss_and_gradient: wrong output dimension");
  return batch_pass<true, true>(w, data, batch, g);
}

void MlpModel::batch_gradient_into(const Vector& w, const Dataset& data,
                                   std::span<const size_t> batch,
                                   std::span<double> g) const {
  require(!batch.empty(), "MlpModel::batch_gradient_into: empty batch");
  require(data.labeled(), "MlpModel::batch_gradient_into: dataset must be labeled");
  require(g.size() == dim_, "MlpModel::batch_gradient_into: wrong output dimension");
  batch_pass<false, true>(w, data, batch, g);
}

double MlpModel::batch_loss(const Vector& w, const Dataset& data,
                            std::span<const size_t> batch) const {
  require(!batch.empty(), "MlpModel::batch_loss: empty batch");
  require(data.labeled(), "MlpModel::batch_loss: dataset must be labeled");
  return batch_pass<true, false>(w, data, batch, {});
}

double MlpModel::accuracy(const Vector& w, const Dataset& data) const {
  require(data.labeled() && data.size() > 0, "MlpModel::accuracy: bad dataset");
  Vector& a1 = hidden_scratch();
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const bool predicted = forward(w, data.x(i), a1) > 0.0;
    const bool actual = data.y(i) > 0.5;
    if (predicted == actual) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace dpbyz
