// Unit tests for the one-hidden-layer MLP (the §3 non-convex task):
// backprop checked against finite differences across widths (TEST_P),
// initialization properties, and end-to-end training sanity.
#include "models/mlp_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dpbyz {
namespace {

Dataset xor_like() {
  // XOR — the canonical task a linear model cannot solve.
  return Dataset(Matrix::from_rows({{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}}),
                 Vector{0.0, 1.0, 1.0, 0.0});
}

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

class MlpGradientTest : public ::testing::TestWithParam<size_t> {};  // hidden width

TEST_P(MlpGradientTest, BackpropMatchesFiniteDifference) {
  const size_t hidden = GetParam();
  const Dataset d = xor_like();
  const MlpModel m(2, hidden, 7);
  const std::vector<size_t> batch{0, 1, 2, 3};
  // Check at the init point and at a perturbed point.
  Vector w = m.initial_parameters();
  for (int round = 0; round < 2; ++round) {
    Vector analytic(m.dim());
    m.batch_gradient_into(w, d, batch, analytic);
    const Vector numeric = numerical_gradient(m, w, d, batch);
    for (size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(analytic[i], numeric[i], 1e-5) << "hidden=" << hidden << " coord=" << i;
    for (double& x : w) x += 0.37;  // move to a generic point
  }
}

TEST_P(MlpGradientTest, DimFormula) {
  const size_t hidden = GetParam();
  const MlpModel m(5, hidden);
  EXPECT_EQ(m.dim(), hidden * 7 + 1);  // h*(f+2)+1
  EXPECT_EQ(m.initial_parameters().size(), m.dim());
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpGradientTest, ::testing::Values(1, 2, 5, 16));

TEST(MlpModel, InitializationIsDeterministicAndAsymmetric) {
  const MlpModel m(4, 8, 3);
  const Vector a = m.initial_parameters();
  const Vector b = m.initial_parameters();
  EXPECT_EQ(a, b);
  const MlpModel other(4, 8, 4);
  EXPECT_NE(a, other.initial_parameters());
  // Hidden rows must differ (symmetry broken).
  bool differs = false;
  for (size_t j = 0; j < 4; ++j)
    if (a[j] != a[4 + j]) differs = true;
  EXPECT_TRUE(differs);
}

TEST(MlpModel, PredictionIsAProbability) {
  const MlpModel m(3, 4);
  const Vector w = m.initial_parameters();
  const Vector x{0.5, -1.0, 2.0};
  const double p = m.predict(w, x);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(MlpModel, LearnsXorWhichLinearCannot) {
  const Dataset d = xor_like();
  const MlpModel m(2, 8, 5);
  Vector w = m.initial_parameters();
  const std::vector<size_t> batch{0, 1, 2, 3};
  // Plain full-batch gradient descent.
  Vector g(m.dim());
  for (int step = 0; step < 4000; ++step) {
    m.batch_gradient_into(w, d, batch, g);
    vec::axpy_inplace(w, -2.0, g);
  }
  EXPECT_DOUBLE_EQ(m.accuracy(w, d), 1.0);
}

TEST(MlpModel, TrainsThroughTheFullPipeline) {
  // The MLP must slot into the Trainer exactly like the linear model.
  BlobsConfig cfg;
  cfg.num_samples = 400;
  cfg.num_features = 6;
  cfg.separation = 4.0;
  const Dataset full = make_blobs(cfg, 8);
  Rng rng(9);
  auto [train, test] = full.split(300, rng);
  const MlpModel model(6, 8, 2);
  ExperimentConfig c;
  c.steps = 200;
  c.batch_size = 10;
  c.eval_every = 200;
  c.clip_norm = 0.1;  // MLP gradients are larger than the linear task's
  c.learning_rate = 1.0;
  const RunResult r = Trainer(c, model, train, test).run();
  EXPECT_GT(r.final_accuracy, 0.8);
}

TEST(MlpModel, BatchGradientIntoOverwritesStaleOutputBitForBit) {
  const MlpModel m(2, 5);
  const Dataset d = xor_like();
  const std::vector<size_t> batch{0, 1, 2, 3};
  const Vector w = m.initial_parameters();
  Vector into(m.dim(), 99.0);  // stale contents must be overwritten
  m.batch_gradient_into(w, d, batch, into);
  Vector fresh(m.dim(), 0.0);
  m.batch_gradient_into(w, d, batch, fresh);
  EXPECT_EQ(into, fresh);
}

TEST(MlpModel, ValidatesConstructionAndInputs) {
  EXPECT_THROW(MlpModel(0, 4), std::invalid_argument);
  EXPECT_THROW(MlpModel(4, 0), std::invalid_argument);
  const MlpModel m(3, 2);
  const Dataset d = xor_like();  // 2 features != 3
  const std::vector<size_t> batch{0};
  Vector g(m.dim());
  EXPECT_THROW(m.batch_gradient_into(m.initial_parameters(), d, batch, g),
               std::invalid_argument);
  EXPECT_THROW(m.batch_gradient_into(Vector(3, 0.0), d, batch, g), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
