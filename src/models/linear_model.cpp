#include "models/linear_model.hpp"

#include <algorithm>
#include <cmath>

#include "utils/errors.hpp"

namespace dpbyz {

double Model::accuracy(const Vector&, const Dataset&) const {
  return std::nan("");
}

double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

const char* to_string(LinearLoss loss) {
  switch (loss) {
    case LinearLoss::kMseOnSigmoid: return "mse_sigmoid";
    case LinearLoss::kLeastSquares: return "least_squares";
    case LinearLoss::kLogistic: return "logistic";
  }
  return "unknown";
}

LinearModel::LinearModel(size_t num_features, LinearLoss loss)
    : num_features_(num_features), loss_(loss) {
  require(num_features > 0, "LinearModel: need at least one feature");
}

// The row-blocked kernel.  Samples go through in blocks of kBlock (plus
// a one-row tail), and every sum keeps the order of the plain
// one-sample-at-a-time loop, so all outputs are bit-identical to it:
//   * each sample's score z has its own accumulator, bias first, then
//     j = 0..f-1 — the blocking only interleaves kBlock independent
//     dependency chains, which is where the speed comes from;
//   * loss terms and dL/dz are computed per sample, in batch order;
//   * each gradient coordinate adds its kBlock terms in batch order.
// No reassociation is ever needed, so no compiler flag is either.
template <unsigned kOutputs, class RowAt>
double LinearModel::row_pass(const Vector& w, const Dataset& data, size_t rows,
                             RowAt row_at, std::span<double> g) const {
  require(w.size() == dim(), "LinearModel: wrong parameter dimension");
  require(data.dim() == num_features_, "LinearModel: wrong feature dimension");
  constexpr bool kWantLoss = (kOutputs & kLoss) != 0;
  constexpr bool kWantGradient = (kOutputs & kGradient) != 0;
  constexpr bool kWantCorrect = (kOutputs & kCorrect) != 0;
  constexpr size_t kBlock = 4;
  const size_t f = num_features_;
  const double* wv = w.data();
  if constexpr (kWantGradient) vec::fill(g, 0.0);
  double sum = 0.0;

  auto block = [&]<size_t K>(size_t first) {
    const double* x[K] = {};
    double y[K] = {};
    double z[K] = {};
    for (size_t k = 0; k < K; ++k) {
      const size_t i = row_at(first + k);
      x[k] = data.x(i).data();
      y[k] = data.y(i);
      z[k] = wv[f];  // bias
    }
    for (size_t j = 0; j < f; ++j)
      for (size_t k = 0; k < K; ++k) z[k] += wv[j] * x[k][j];

    [[maybe_unused]] double dz[K] = {};
    for (size_t k = 0; k < K; ++k) {
      if constexpr (kWantCorrect) {
        // sigma(z) > 0.5 <=> z > 0
        if ((z[k] > 0.0) == (y[k] > 0.5)) sum += 1.0;
      } else {
        switch (loss_) {
          case LinearLoss::kMseOnSigmoid: {
            const double p = sigmoid(z[k]);
            if constexpr (kWantLoss) {
              const double diff = p - y[k];
              sum += diff * diff;
            }
            if constexpr (kWantGradient) dz[k] = 2.0 * (p - y[k]) * p * (1.0 - p);
            break;
          }
          case LinearLoss::kLeastSquares: {
            const double diff = z[k] - y[k];
            if constexpr (kWantLoss) sum += diff * diff;
            if constexpr (kWantGradient) dz[k] = 2.0 * diff;
            break;
          }
          case LinearLoss::kLogistic: {
            // Stable: log(1 + exp(-|z|)) + max(z,0) - z*y
            if constexpr (kWantLoss)
              sum += std::log1p(std::exp(-std::abs(z[k]))) + std::max(z[k], 0.0) -
                     z[k] * y[k];
            if constexpr (kWantGradient) dz[k] = sigmoid(z[k]) - y[k];
            break;
          }
        }
      }
    }

    if constexpr (kWantGradient) {
      for (size_t j = 0; j < f; ++j) {
        double gj = g[j];
        for (size_t k = 0; k < K; ++k) gj += dz[k] * x[k][j];
        g[j] = gj;
      }
      for (size_t k = 0; k < K; ++k) g[f] += dz[k];  // bias input is 1
    }
  };

  size_t r = 0;
  for (; r + kBlock <= rows; r += kBlock) block.template operator()<kBlock>(r);
  for (; r < rows; ++r) block.template operator()<1>(r);
  return sum;
}

double LinearModel::batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                                 std::span<const size_t> batch,
                                                 std::span<double> g) const {
  require(!batch.empty(), "LinearModel::batch_loss_and_gradient: empty batch");
  require(data.labeled(), "LinearModel::batch_loss_and_gradient: dataset must be labeled");
  require(g.size() == dim(), "LinearModel::batch_loss_and_gradient: wrong output dimension");
  const double loss = row_pass<kLoss | kGradient>(
      w, data, batch.size(), [batch](size_t k) { return batch[k]; }, g);
  const double b = static_cast<double>(batch.size());
  vec::scale_inplace(g, 1.0 / b);
  return loss / b;
}

void LinearModel::batch_gradient_into(const Vector& w, const Dataset& data,
                                      std::span<const size_t> batch,
                                      std::span<double> g) const {
  require(!batch.empty(), "LinearModel::batch_gradient_into: empty batch");
  require(data.labeled(), "LinearModel::batch_gradient_into: dataset must be labeled");
  require(g.size() == dim(), "LinearModel::batch_gradient_into: wrong output dimension");
  row_pass<kGradient>(w, data, batch.size(), [batch](size_t k) { return batch[k]; }, g);
  vec::scale_inplace(g, 1.0 / static_cast<double>(batch.size()));
}

double LinearModel::batch_loss(const Vector& w, const Dataset& data,
                               std::span<const size_t> batch) const {
  require(!batch.empty(), "LinearModel::batch_loss: empty batch");
  require(data.labeled(), "LinearModel::batch_loss: dataset must be labeled");
  return row_pass<kLoss>(w, data, batch.size(), [batch](size_t k) { return batch[k]; },
                         {}) /
         static_cast<double>(batch.size());
}

double LinearModel::accuracy(const Vector& w, const Dataset& data) const {
  require(data.labeled(), "LinearModel::accuracy: dataset must be labeled");
  require(data.size() > 0, "LinearModel::accuracy: empty dataset");
  return row_pass<kCorrect>(w, data, data.size(), [](size_t k) { return k; }, {}) /
         static_cast<double>(data.size());
}

}  // namespace dpbyz
