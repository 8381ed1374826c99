// Unit tests for models: linear model gradients (checked against finite
// differences), quadratic model, clipping, and the fused loss+gradient
// entry (bit-identical to the separate entries and to a per-sample loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "data/synthetic.hpp"
#include "math/rng.hpp"
#include "models/clipping.hpp"
#include "models/linear_model.hpp"
#include "models/mlp_model.hpp"
#include "models/quadratic_model.hpp"

namespace dpbyz {
namespace {

Dataset tiny_classification() {
  return Dataset(Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}}),
                 Vector{1.0, 0.0, 1.0, 0.0});
}

std::vector<size_t> all_rows(const Dataset& d) {
  std::vector<size_t> idx(d.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

/// Central finite-difference gradient of model.batch_loss at w.
Vector numerical_gradient(const Model& m, const Vector& w, const Dataset& d,
                          const std::vector<size_t>& batch, double h = 1e-6) {
  Vector g(w.size());
  Vector wp = w;
  for (size_t i = 0; i < w.size(); ++i) {
    wp[i] = w[i] + h;
    const double up = m.batch_loss(wp, d, batch);
    wp[i] = w[i] - h;
    const double down = m.batch_loss(wp, d, batch);
    wp[i] = w[i];
    g[i] = (up - down) / (2.0 * h);
  }
  return g;
}

class LinearModelGradientTest : public ::testing::TestWithParam<LinearLoss> {};

TEST_P(LinearModelGradientTest, AnalyticMatchesFiniteDifference) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, GetParam());
  const auto batch = all_rows(d);
  // Probe several parameter points, including non-zero bias.
  const std::vector<Vector> points{
      {0.0, 0.0, 0.0}, {0.5, -0.3, 0.2}, {-1.0, 2.0, -0.5}};
  for (const Vector& w : points) {
    Vector analytic(m.dim());
    m.batch_gradient_into(w, d, batch, analytic);
    const Vector numeric = numerical_gradient(m, w, d, batch);
    for (size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(analytic[i], numeric[i], 1e-5)
          << "loss=" << to_string(GetParam()) << " coord=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LinearModelGradientTest,
                         ::testing::Values(LinearLoss::kMseOnSigmoid,
                                           LinearLoss::kLeastSquares,
                                           LinearLoss::kLogistic));

TEST(LinearModel, DimIncludesBias) {
  const LinearModel m(68, LinearLoss::kMseOnSigmoid);
  EXPECT_EQ(m.dim(), 69u);  // the paper's d = 69
}

TEST(LinearModel, PerfectSeparationGivesFullAccuracy) {
  const Dataset d = tiny_classification();  // label = x0
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w{10.0, 0.0, -5.0};  // sign(10*x0 - 5) == label
  EXPECT_DOUBLE_EQ(m.accuracy(w, d), 1.0);
}

TEST(LinearModel, ZeroParamsGiveMajorityClassAccuracy) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w(3, 0.0);  // score 0 -> predicts negative for all
  EXPECT_DOUBLE_EQ(m.accuracy(w, d), 0.5);
}

TEST(LinearModel, BatchGradientAveragesPerSampleGradients) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kLeastSquares);
  const Vector w{0.1, 0.2, 0.3};
  const std::vector<size_t> b01{0, 1};
  const std::vector<size_t> b0{0}, b1{1};
  Vector g01(m.dim());
  m.batch_gradient_into(w, d, b01, g01);
  Vector g0(m.dim());
  m.batch_gradient_into(w, d, b0, g0);
  Vector g1(m.dim());
  m.batch_gradient_into(w, d, b1, g1);
  for (size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(g01[i], 0.5 * (g0[i] + g1[i]), 1e-12);
}

TEST(LinearModel, EmptyBatchThrows) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const std::vector<size_t> empty;
  Vector g(3);
  EXPECT_THROW(m.batch_gradient_into(Vector(3, 0.0), d, empty, g), std::invalid_argument);
  EXPECT_THROW(m.batch_loss(Vector(3, 0.0), d, empty), std::invalid_argument);
  EXPECT_THROW(m.batch_loss_and_gradient_into(Vector(3, 0.0), d, empty, g),
               std::invalid_argument);
}

TEST(LinearModel, WrongParameterDimensionThrows) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const std::vector<size_t> batch{0};
  Vector g(m.dim());
  for (const Vector& w : {Vector(2, 0.0), Vector(4, 0.0)}) {
    EXPECT_THROW(m.batch_gradient_into(w, d, batch, g), std::invalid_argument);
    EXPECT_THROW(m.batch_loss(w, d, batch), std::invalid_argument);
    EXPECT_THROW(m.batch_loss_and_gradient_into(w, d, batch, g), std::invalid_argument);
    EXPECT_THROW(m.accuracy(w, d), std::invalid_argument);
  }
}

TEST(LinearModel, WrongFeatureDimensionThrows) {
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w(m.dim(), 0.0);
  const std::vector<size_t> batch{0};
  Vector g(m.dim());
  for (size_t features : {1u, 3u}) {
    const Dataset d(Matrix(4, features, 1.0), Vector{1.0, 0.0, 1.0, 0.0});
    EXPECT_THROW(m.batch_gradient_into(w, d, batch, g), std::invalid_argument) << features;
    EXPECT_THROW(m.batch_loss(w, d, batch), std::invalid_argument) << features;
    EXPECT_THROW(m.batch_loss_and_gradient_into(w, d, batch, g), std::invalid_argument)
        << features;
    EXPECT_THROW(m.accuracy(w, d), std::invalid_argument) << features;
  }
}

TEST(LinearModel, BatchRowOutOfRangeThrows) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w(m.dim(), 0.0);
  Vector g(m.dim());
  // Out-of-range rows in the 4-row block and in the tail alike.
  for (const std::vector<size_t>& batch :
       {std::vector<size_t>{0, 1, 4, 2}, std::vector<size_t>{0, 1, 2, 3, 9}}) {
    EXPECT_THROW(m.batch_gradient_into(w, d, batch, g), std::invalid_argument);
    EXPECT_THROW(m.batch_loss(w, d, batch), std::invalid_argument);
    EXPECT_THROW(m.batch_loss_and_gradient_into(w, d, batch, g), std::invalid_argument);
  }
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(sigmoid(-1e308)));
}

TEST(QuadraticModel, GradientIsWMinusBatchMean) {
  const size_t dim = 3;
  QuadraticModel m(dim, Vector{1.0, 2.0, 3.0});
  const Dataset d(Matrix::from_rows({{0.0, 0.0, 0.0}, {2.0, 2.0, 2.0}}), Vector{});
  const Vector w{1.0, 1.0, 1.0};
  const std::vector<size_t> batch{0, 1};
  // batch mean = (1,1,1); gradient = w - mean = 0.
  Vector g(dim, 99.0);
  m.batch_gradient_into(w, d, batch, g);
  EXPECT_EQ(g, (Vector{0.0, 0.0, 0.0}));
}

TEST(QuadraticModel, ExcessLossIsHalfSquaredDistance) {
  QuadraticModel m(2, Vector{3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.excess_loss(Vector{0.0, 0.0}), 12.5);
  EXPECT_DOUBLE_EQ(m.excess_loss(Vector{3.0, 4.0}), 0.0);
}

TEST(QuadraticModel, GradientMatchesFiniteDifference) {
  GaussianMeanConfig cfg;
  cfg.dim = 4;
  cfg.num_samples = 10;
  const auto g = make_gaussian_mean(cfg, 3);
  QuadraticModel m(cfg.dim, g.mean);
  const std::vector<size_t> batch{0, 3, 7};
  const Vector w{0.5, -0.5, 1.0, 0.0};
  Vector analytic(m.dim());
  m.batch_gradient_into(w, g.data, batch, analytic);
  const Vector numeric = numerical_gradient(m, w, g.data, batch);
  for (size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(analytic[i], numeric[i], 1e-5);
}

TEST(QuadraticModel, AccuracyIsNan) {
  QuadraticModel m(2, Vector{0.0, 0.0});
  const Dataset d(Matrix(3, 2), Vector{});
  EXPECT_TRUE(std::isnan(m.accuracy(Vector{0.0, 0.0}, d)));
}

TEST(Clipping, LeavesShortVectorsUntouched) {
  Vector g{0.3, 0.4};  // norm 0.5
  EXPECT_DOUBLE_EQ(clip_l2_inplace(g, 1.0), 0.5);
  EXPECT_EQ(g, (Vector{0.3, 0.4}));
}

TEST(Clipping, ScalesLongVectorsToBound) {
  Vector g{3.0, 4.0};  // norm 5
  const double pre = clip_l2_inplace(g, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(vec::norm(g), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(g[0] / g[1], 0.75, 1e-12);
}

TEST(Clipping, RejectsNonPositiveBound) {
  Vector g{1.0};
  EXPECT_THROW(clip_l2_inplace(g, 0.0), std::invalid_argument);
}

TEST(BatchGradientInto, LinearOverwritesStaleOutputBitForBit) {
  const Dataset d = tiny_classification();
  const auto batch = all_rows(d);
  for (LinearLoss loss :
       {LinearLoss::kMseOnSigmoid, LinearLoss::kLeastSquares, LinearLoss::kLogistic}) {
    const LinearModel m(2, loss);
    const Vector w{0.5, -0.3, 0.2};
    Vector into(m.dim(), 99.0);  // stale contents must be overwritten
    m.batch_gradient_into(w, d, batch, into);
    Vector fresh(m.dim(), 0.0);
    m.batch_gradient_into(w, d, batch, fresh);
    EXPECT_EQ(into, fresh) << to_string(loss);
  }
}

TEST(BatchGradientInto, QuadraticOverwritesStaleOutputBitForBit) {
  const Dataset d(Matrix::from_rows({{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}}), Vector{});
  const QuadraticModel m(2, Vector{0.0, 0.0});
  const std::vector<size_t> batch{0, 1, 2};
  const Vector w{0.25, -0.75};
  Vector into(2, 99.0);
  m.batch_gradient_into(w, d, batch, into);
  Vector fresh(2, 0.0);
  m.batch_gradient_into(w, d, batch, fresh);
  EXPECT_EQ(into, fresh);
}

TEST(BatchGradientInto, RejectsWrongOutputDimension) {
  const Dataset d = tiny_classification();
  const auto batch = all_rows(d);
  const LinearModel linear(2, LinearLoss::kLogistic);
  const MlpModel mlp(2, 3);
  const QuadraticModel quadratic(2, Vector{0.0, 0.0});
  for (const Model* m : {static_cast<const Model*>(&linear),
                         static_cast<const Model*>(&mlp),
                         static_cast<const Model*>(&quadratic)}) {
    const Vector w = m->initial_parameters();
    Vector wrong(m->dim() + 1);
    EXPECT_THROW(m->batch_gradient_into(w, d, batch, wrong), std::invalid_argument);
    EXPECT_THROW(m->batch_loss_and_gradient_into(w, d, batch, wrong), std::invalid_argument);
  }
}

// ---- The fused loss+gradient entry -------------------------------------
//
// "width" is the number of input columns plus one: LinearModel(width - 1)
// has dim() == width, QuadraticModel(width) too, MlpModel(width - 1, 3)
// reads the same rows.  Batch sizes cover the 4-row block and every tail.

constexpr size_t kFusionBatchSizes[] = {1, 2, 3, 4, 5, 7, 50};
constexpr size_t kFusionWidths[] = {2, 69, 1000};
constexpr size_t kFusionRows = 61;

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// kFusionRows rows of N(0, 1) features (`cols` wide) with 0/1 labels.
Dataset fusion_dataset(size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix x(kFusionRows, cols);
  Vector y(kFusionRows);
  for (size_t i = 0; i < kFusionRows; ++i) {
    for (double& v : x.row(i)) v = rng.normal();
    y[i] = rng.uniform() < 0.5 ? 0.0 : 1.0;
  }
  return Dataset(std::move(x), std::move(y));
}

Vector fusion_parameters(size_t dim, uint64_t seed) {
  Rng rng(seed);
  Vector w(dim);
  for (double& v : w) v = rng.normal(0.0, 0.3);
  return w;
}

/// Unsorted batch with repeated rows, as the i.i.d. sampler draws them.
std::vector<size_t> fusion_batch(size_t b) {
  std::vector<size_t> batch(b);
  for (size_t k = 0; k < b; ++k) batch[k] = (k * 37 + 11) % kFusionRows;
  if (b > 2) batch[b - 1] = batch[0];
  return batch;
}

/// Fused entry == batch_loss + batch_gradient_into, bit for bit.
void expect_fusion_matches_separate(const Model& m, const Dataset& d, const Vector& w,
                                    const std::string& what) {
  for (size_t b : kFusionBatchSizes) {
    const auto batch = fusion_batch(b);
    Vector fused(m.dim(), 99.0);  // stale contents must be overwritten
    Vector separate(m.dim(), -99.0);
    const double fused_loss = m.batch_loss_and_gradient_into(w, d, batch, fused);
    m.batch_gradient_into(w, d, batch, separate);
    EXPECT_EQ(bits(fused_loss), bits(m.batch_loss(w, d, batch))) << what << " b=" << b;
    size_t mismatched = 0;
    for (size_t j = 0; j < m.dim(); ++j) mismatched += bits(fused[j]) != bits(separate[j]);
    EXPECT_EQ(mismatched, 0u) << what << " b=" << b;
  }
}

constexpr LinearLoss kAllLinearLosses[] = {LinearLoss::kMseOnSigmoid,
                                           LinearLoss::kLeastSquares, LinearLoss::kLogistic};

TEST(ModelFusion, LinearFusedMatchesSeparateEntriesBitForBit) {
  for (size_t width : kFusionWidths) {
    const Dataset d = fusion_dataset(width - 1, 7 + width);
    const Vector w = fusion_parameters(width, 3 + width);
    for (LinearLoss loss : kAllLinearLosses)
      expect_fusion_matches_separate(LinearModel(width - 1, loss), d, w,
                                     std::string(to_string(loss)) +
                                         " width=" + std::to_string(width));
  }
}

TEST(ModelFusion, MlpFusedMatchesSeparateEntriesBitForBit) {
  for (size_t width : kFusionWidths) {
    const Dataset d = fusion_dataset(width - 1, 7 + width);
    const MlpModel m(width - 1, 3, 5);
    expect_fusion_matches_separate(m, d, m.initial_parameters(),
                                   "mlp width=" + std::to_string(width));
  }
}

TEST(ModelFusion, QuadraticFusedMatchesSeparateEntriesBitForBit) {
  for (size_t width : kFusionWidths) {
    const Dataset d = fusion_dataset(width, 7 + width);
    const QuadraticModel m(width, Vector(width, 0.5));
    expect_fusion_matches_separate(m, d, fusion_parameters(width, 3 + width),
                                   "quadratic width=" + std::to_string(width));
  }
}

/// One-sample-at-a-time reference for LinearModel: the score, loss and
/// gradient sums in their plain per-sample order.  The row-blocked
/// kernel must reproduce it exactly.
double reference_linear(LinearLoss loss, const Vector& w, const Dataset& d,
                        const std::vector<size_t>& batch, Vector& g) {
  const size_t f = d.dim();
  std::fill(g.begin(), g.end(), 0.0);
  double acc = 0.0;
  for (size_t i : batch) {
    const auto x = d.x(i);
    const double y = d.y(i);
    double z = w[f];
    for (size_t j = 0; j < f; ++j) z += w[j] * x[j];
    double dz = 0.0;
    switch (loss) {
      case LinearLoss::kMseOnSigmoid: {
        const double p = sigmoid(z);
        acc += (p - y) * (p - y);
        dz = 2.0 * (p - y) * p * (1.0 - p);
        break;
      }
      case LinearLoss::kLeastSquares:
        acc += (z - y) * (z - y);
        dz = 2.0 * (z - y);
        break;
      case LinearLoss::kLogistic:
        acc += std::log1p(std::exp(-std::abs(z))) + std::max(z, 0.0) - z * y;
        dz = sigmoid(z) - y;
        break;
    }
    for (size_t j = 0; j < f; ++j) g[j] += dz * x[j];
    g[f] += dz;
  }
  const double b = static_cast<double>(batch.size());
  for (double& v : g) v *= 1.0 / b;
  return acc / b;
}

TEST(ModelFusion, LinearMatchesPerSampleReferenceBitForBit) {
  for (size_t width : kFusionWidths) {
    const Dataset d = fusion_dataset(width - 1, 7 + width);
    const Vector w = fusion_parameters(width, 3 + width);
    for (LinearLoss loss : kAllLinearLosses) {
      const LinearModel m(width - 1, loss);
      for (size_t b : kFusionBatchSizes) {
        const auto batch = fusion_batch(b);
        Vector got(width), want(width);
        const double got_loss = m.batch_loss_and_gradient_into(w, d, batch, got);
        const double want_loss = reference_linear(loss, w, d, batch, want);
        EXPECT_EQ(bits(got_loss), bits(want_loss))
            << to_string(loss) << " width=" << width << " b=" << b;
        size_t mismatched = 0;
        for (size_t j = 0; j < width; ++j) mismatched += bits(got[j]) != bits(want[j]);
        EXPECT_EQ(mismatched, 0u) << to_string(loss) << " width=" << width << " b=" << b;
      }
    }
  }
}

TEST(ModelFusion, RowBlockedAccuracyMatchesPerSampleCount) {
  static_assert(kFusionRows % 4 != 0, "the dataset must leave a block tail");
  for (size_t width : kFusionWidths) {
    const Dataset d = fusion_dataset(width - 1, 7 + width);
    const Vector w = fusion_parameters(width, 3 + width);
    const size_t f = width - 1;
    size_t correct = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      double z = w[f];
      for (size_t j = 0; j < f; ++j) z += w[j] * d.x(i)[j];
      correct += (z > 0.0) == (d.y(i) > 0.5);
    }
    ASSERT_GT(correct, 0u);
    ASSERT_LT(correct, d.size());
    const LinearModel m(f, LinearLoss::kMseOnSigmoid);
    EXPECT_EQ(bits(m.accuracy(w, d)),
              bits(static_cast<double>(correct) / static_cast<double>(d.size())))
        << "width=" << width;
  }
}

}  // namespace
}  // namespace dpbyz
