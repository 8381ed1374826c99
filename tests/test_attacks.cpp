// Unit tests for the Byzantine attacks.
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attack.hpp"
#include "attacks/auxiliary_attacks.hpp"
#include "attacks/fall_of_empires.hpp"
#include "attacks/little_is_enough.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> sample_honest() {
  // Mean (1, 2), per-coordinate population stddev computable by hand.
  return {{0.0, 2.0}, {2.0, 2.0}, {1.0, 2.0}};
  // coord 0: mean 1, values {0,2,1} -> pop var 2/3; coord 1: stddev 0.
}

/// Tests keep the observation arena alive for the context's lifetime, so
/// each test materialises a named GradientBatch and builds contexts on it.
AttackContext ctx_of(const GradientBatch& observed, size_t f = 5, size_t step = 1) {
  return AttackContext{observed, observed.rows(), f, step};
}

TEST(ALittleIsEnough, ForgesMeanMinusNuSigma) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  ALittleIsEnough attack(1.5);
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  const double sigma0 = std::sqrt(2.0 / 3.0);
  EXPECT_NEAR(forged[0], 1.0 - 1.5 * sigma0, 1e-12);
  EXPECT_NEAR(forged[1], 2.0, 1e-12);  // zero spread coordinate unchanged
}

TEST(ALittleIsEnough, PaperDefaultNu) {
  EXPECT_DOUBLE_EQ(ALittleIsEnough().nu(), 1.5);
}

TEST(ALittleIsEnough, OptimalNuMatchesBaruchFormula) {
  // n = 11, f = 5: s = 1, p = 5/6, z = Phi^{-1}(0.8333) ~ 0.9674.
  EXPECT_NEAR(ALittleIsEnough::optimal_nu(11, 5), 0.96742, 1e-4);
  // n = 50, f = 24: s = 2, p = 24/26 ~ 0.923, z ~ 1.4261.
  EXPECT_NEAR(ALittleIsEnough::optimal_nu(50, 24), 1.4261, 1e-3);
  // More Byzantine workers need to blend with *fewer* honest workers to
  // fake a majority, so the usable offset z grows with f.
  EXPECT_LT(ALittleIsEnough::optimal_nu(11, 1), ALittleIsEnough::optimal_nu(11, 5));
  EXPECT_THROW(ALittleIsEnough::optimal_nu(11, 6), std::invalid_argument);
}

TEST(ALittleIsEnough, StaysWithinHonestSpread) {
  // The attack's design goal: the forged vector is only nu standard
  // deviations from the honest mean — per coordinate.
  Rng data_rng(5);
  std::vector<Vector> honest;
  for (int i = 0; i < 10; ++i) honest.push_back(data_rng.normal_vector(4, 0.3));
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  ALittleIsEnough attack(1.5);
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  const Vector mean = stats::coordinate_mean(honest);
  const Vector sd = stats::coordinate_stddev(honest);
  for (size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(std::abs(forged[c] - mean[c]), 1.5 * sd[c], 1e-9);
}

TEST(FallOfEmpires, ForgesOneMinusNuTimesMean) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  FallOfEmpires attack(1.1);
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  EXPECT_NEAR(forged[0], -0.1 * 1.0, 1e-12);
  EXPECT_NEAR(forged[1], -0.1 * 2.0, 1e-12);
}

TEST(FallOfEmpires, PaperDefaultNu) {
  EXPECT_DOUBLE_EQ(FallOfEmpires().nu(), 1.1);
}

TEST(FallOfEmpires, NegatesInnerProductForNuAboveOne) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  const Vector mean = stats::coordinate_mean(honest);
  FallOfEmpires attack(1.1);
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  EXPECT_LT(vec::dot(forged, mean), 0.0);
}

TEST(SignFlip, OppositeOfMean) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  SignFlip attack(2.0);
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  EXPECT_EQ(forged, (Vector{-2.0, -4.0}));
}

TEST(ZeroGradient, AllZeros) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  ZeroGradient attack;
  Rng rng(1);
  Vector forged(observed.dim(), 1.0);
  attack.forge_into(ctx_of(observed), rng, forged);
  EXPECT_EQ(forged, vec::zeros(2));
}

TEST(Mimic, CopiesFirstHonest) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  Mimic attack;
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed), rng, forged);
  EXPECT_EQ(forged, honest[0]);
}

TEST(RandomGaussian, HasRequestedSpread) {
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  RandomGaussian attack(3.0);
  Rng rng(7);
  stats::RunningStat s;
  for (int i = 0; i < 5000; ++i) {
    Vector v(observed.dim());
    attack.forge_into(ctx_of(observed), rng, v);
    s.push(v[0]);
    s.push(v[1]);
  }
  EXPECT_NEAR(s.stddev(), 3.0, 0.15);
  EXPECT_NEAR(s.mean(), 0.0, 0.15);
}

TEST(AttackFactory, CreatesEveryAdvertisedAttack) {
  for (const auto& name : attack_names()) {
    const auto attack = make_attack(name, std::nan(""));
    ASSERT_NE(attack, nullptr) << name;
    EXPECT_EQ(attack->name(), name);
  }
}

TEST(AttackFactory, RespectsExplicitNu) {
  const auto little = make_attack("little", 2.5);
  const auto honest = sample_honest();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  Rng rng(1);
  Vector forged(observed.dim());
  little->forge_into(ctx_of(observed), rng, forged);
  const double sigma0 = std::sqrt(2.0 / 3.0);
  EXPECT_NEAR(forged[0], 1.0 - 2.5 * sigma0, 1e-12);
}

TEST(AttackFactory, UnknownNameThrows) {
  EXPECT_THROW(make_attack("nope", 1.0), std::invalid_argument);
}

TEST(Attacks, EmptyHonestSetThrows) {
  const GradientBatch none;
  Rng rng(1);
  const AttackContext ctx{none, 0, 5, 1};
  Vector out;
  EXPECT_THROW(ALittleIsEnough().forge_into(ctx, rng, out), std::invalid_argument);
  EXPECT_THROW(FallOfEmpires().forge_into(ctx, rng, out), std::invalid_argument);
  EXPECT_THROW(SignFlip().forge_into(ctx, rng, out), std::invalid_argument);
}

TEST(Attacks, ValidateConstruction) {
  EXPECT_THROW(ALittleIsEnough(-1.0), std::invalid_argument);
  EXPECT_THROW(FallOfEmpires(-0.5), std::invalid_argument);
  EXPECT_THROW(SignFlip(0.0), std::invalid_argument);
  EXPECT_THROW(RandomGaussian(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
