// Unit tests for the privacy-attack module (gradient inversion and
// membership inference) — the "why DP" side of the paper.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "models/linear_model.hpp"
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"

namespace dpbyz {
namespace {

TEST(GradientInversion, ExactOnCleanSingleSampleGradient) {
  // Construct a gradient by hand: g = [dz * x, dz].
  const Vector x{0.5, -1.0, 2.0};
  const double dz = -0.3;
  Vector g{dz * x[0], dz * x[1], dz * x[2], dz};
  const auto inv = privacy::invert_single_gradient(g);
  ASSERT_TRUE(inv.has_value());
  for (size_t j = 0; j < x.size(); ++j)
    EXPECT_NEAR(inv->reconstructed_features[j], x[j], 1e-12);
  EXPECT_TRUE(inv->inferred_label);  // dz < 0 => y = 1
  EXPECT_DOUBLE_EQ(inv->bias_coordinate, dz);
}

TEST(GradientInversion, RealModelGradientInvertsExactly) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 100;
  const Dataset data = make_phishing_like(cfg, 7);
  const LinearModel model(data.dim(), LinearLoss::kMseOnSigmoid);
  const Vector w(model.dim(), 0.0);
  const std::vector<size_t> batch{13};
  Vector g(model.dim());
  model.batch_gradient_into(w, data, batch, g);
  const auto inv = privacy::invert_single_gradient(g);
  ASSERT_TRUE(inv.has_value());
  EXPECT_LT(privacy::reconstruction_error(inv->reconstructed_features, data.x(13)), 1e-9);
  EXPECT_EQ(inv->inferred_label, data.y(13) > 0.5);
}

TEST(GradientInversion, DegenerateGradientIsRejected) {
  const Vector zero(5, 0.0);
  EXPECT_FALSE(privacy::invert_single_gradient(zero).has_value());
  EXPECT_THROW(privacy::invert_single_gradient(Vector{1.0}), std::invalid_argument);
}

TEST(GradientInversion, ReconstructionErrorMetric) {
  const Vector truth{3.0, 4.0};
  EXPECT_DOUBLE_EQ(privacy::reconstruction_error(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(privacy::reconstruction_error(Vector{0.0, 0.0}, truth), 1.0);
  EXPECT_THROW(privacy::reconstruction_error(Vector{1.0}, truth), std::invalid_argument);
}

TEST(GradientInversion, CampaignPerfectWithoutNoise) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 500;
  const Dataset data = make_phishing_like(cfg, 11);
  const Vector w(data.dim() + 1, 0.0);
  const auto report = privacy::attack_linear_model(data, w, 0.0, 200, 1);
  EXPECT_EQ(report.attempted, 200u);
  EXPECT_GT(report.invertible, 150u);
  EXPECT_LT(report.mean_relative_error, 1e-9);
  EXPECT_GT(report.label_accuracy, 0.99);
}

TEST(GradientInversion, DpNoiseDestroysReconstruction) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 500;
  const Dataset data = make_phishing_like(cfg, 11);
  const Vector w(data.dim() + 1, 0.0);
  // Noise at the paper's calibration for b = 1 (the worst case for the
  // attacker is the victim's whole gradient being one sample).
  const double s = GaussianMechanism::noise_scale(0.2, 1e-6, 1e-2, 1);
  const auto clear = privacy::attack_linear_model(data, w, 0.0, 200, 1);
  const auto noisy = privacy::attack_linear_model(data, w, s, 200, 1);
  EXPECT_GT(noisy.mean_relative_error, 100.0 * clear.mean_relative_error + 0.5);
  EXPECT_LT(noisy.label_accuracy, 0.8);
}

TEST(GradientInversion, MonotoneInNoise) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 300;
  const Dataset data = make_phishing_like(cfg, 11);
  const Vector w(data.dim() + 1, 0.0);
  double prev = -1.0;
  for (double noise : {0.0, 1e-4, 1e-2}) {
    const auto r = privacy::attack_linear_model(data, w, noise, 150, 2);
    EXPECT_GE(r.mean_relative_error, prev * 0.5)  // loose monotonicity
        << "noise " << noise;
    prev = r.mean_relative_error;
  }
}

TEST(GradientInversion, BatchGradientLeaksWeightedCentroid) {
  // For b > 1 the inverted features equal the dz-weighted centroid of the
  // batch — verify against per-sample gradients.
  PhishingLikeConfig cfg;
  cfg.num_samples = 50;
  const Dataset data = make_phishing_like(cfg, 7);
  const LinearModel model(data.dim(), LinearLoss::kMseOnSigmoid);
  Vector w(model.dim(), 0.0);
  w[0] = 0.3;  // off-origin so dz varies across samples
  const std::vector<size_t> batch{3, 17, 29};
  Vector g(model.dim());
  model.batch_gradient_into(w, data, batch, g);
  const auto inv = privacy::invert_batch_gradient(g);
  ASSERT_TRUE(inv.has_value());

  // Expected centroid from per-sample gradients' bias coordinates.
  Vector expected(data.dim(), 0.0);
  double dz_sum = 0.0;
  for (size_t i : batch) {
    const std::vector<size_t> one{i};
    Vector gi(model.dim());
    model.batch_gradient_into(w, data, one, gi);
    const double dz = gi.back();
    dz_sum += dz;
    for (size_t j = 0; j < data.dim(); ++j) expected[j] += dz * data.x(i)[j];
  }
  vec::scale_inplace(expected, 1.0 / dz_sum);
  for (size_t j = 0; j < data.dim(); ++j)
    EXPECT_NEAR(inv->reconstructed_features[j], expected[j], 1e-9);
}

TEST(MembershipInference, NoLeakWhenModelIgnoresData) {
  // With zero parameters the loss is constant: AUC must be ~0.5.
  BlobsConfig cfg;
  cfg.num_samples = 400;
  const Dataset members = make_blobs(cfg, 1);
  const Dataset non_members = make_blobs(cfg, 1);  // same distribution & seed
  const LinearModel model(cfg.num_features, LinearLoss::kMseOnSigmoid);
  const auto report = privacy::membership_inference(
      model, Vector(model.dim(), 0.0), members, non_members, 200);
  EXPECT_NEAR(report.auc, 0.5, 0.05);
}

TEST(MembershipInference, DetectsEngineeredGap) {
  // Members collapsed onto an easy point, non-members onto a hard one:
  // the loss gap must be detected with AUC ~ 1.
  const size_t f = 4;
  Matrix easy(50, f, 1.0), hard(50, f, 1.0);
  Vector easy_y(50, 1.0), hard_y(50, 0.0);  // same x, opposite labels
  const Dataset members(std::move(easy), std::move(easy_y));
  const Dataset non_members(std::move(hard), std::move(hard_y));
  const LinearModel model(f, LinearLoss::kMseOnSigmoid);
  Vector w(model.dim(), 0.0);
  w[0] = 5.0;  // score > 0 -> predicts the members' label
  const auto report = privacy::membership_inference(model, w, members, non_members, 50);
  EXPECT_GT(report.auc, 0.95);
  EXPECT_GT(report.best_accuracy, 0.95);
  EXPECT_LT(report.member_mean_loss, report.non_member_mean_loss);
}

TEST(MembershipInference, ValidatesInput) {
  const LinearModel model(2, LinearLoss::kMseOnSigmoid);
  const Dataset empty;
  const Dataset ok(Matrix(3, 2), Vector{0, 1, 0});
  EXPECT_THROW(privacy::membership_inference(model, Vector(3, 0.0), empty, ok),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
