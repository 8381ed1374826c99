// Property-based tests run over EVERY registered attack (TEST_P sweep):
// dimension preservation, finiteness, determinism for the deterministic
// attacks, seed-sensitivity for the stochastic one, and scale behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attack.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

class AttackPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Attack> make() const { return make_attack(GetParam(), std::nan("")); }

  static std::vector<Vector> honest_sample(size_t count, size_t dim, uint64_t seed) {
    Rng rng(seed);
    std::vector<Vector> g;
    g.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      Vector v = rng.normal_vector(dim, 0.2);
      v[0] += 1.0;  // non-zero mean direction
      g.push_back(std::move(v));
    }
    return g;
  }
};

TEST_P(AttackPropertyTest, PreservesDimension) {
  const auto attack = make();
  for (size_t dim : {1u, 3u, 69u}) {
    const GradientBatch honest = GradientBatch::from_vectors(honest_sample(6, dim, 1));
    Rng rng(9);
    const AttackContext ctx{honest, honest.rows(), 5, 1};
    // Every coordinate of the dim-length row is written.
    Vector forged(dim, std::nan(""));
    attack->forge_into(ctx, rng, forged);
    EXPECT_TRUE(vec::all_finite(forged)) << "dim=" << dim;
  }
}

TEST_P(AttackPropertyTest, ProducesFiniteVectors) {
  const auto attack = make();
  for (uint64_t seed : {1, 2, 3}) {
    const GradientBatch honest = GradientBatch::from_vectors(honest_sample(6, 10, seed));
    Rng rng(seed);
    const AttackContext ctx{honest, honest.rows(), 5, 1};
    Vector forged(ctx.observed.dim());
    attack->forge_into(ctx, rng, forged);
    EXPECT_TRUE(vec::all_finite(forged));
  }
}

TEST_P(AttackPropertyTest, DeterministicGivenRngState) {
  const auto attack = make();
  const GradientBatch honest = GradientBatch::from_vectors(honest_sample(6, 8, 4));
  Rng a(7), b(7);
  const AttackContext ctx{honest, honest.rows(), 5, 3};
  Vector from_a(ctx.observed.dim()), from_b(ctx.observed.dim());
  attack->forge_into(ctx, a, from_a);
  attack->forge_into(ctx, b, from_b);
  EXPECT_EQ(from_a, from_b);
}

TEST_P(AttackPropertyTest, NameRoundTripsThroughFactory) {
  EXPECT_EQ(make()->name(), GetParam());
}

TEST_P(AttackPropertyTest, SingleHonestGradientIsHandled) {
  // Degenerate but legal: only one honest worker observed (sigma = 0).
  const auto attack = make();
  const GradientBatch honest = GradientBatch::from_vectors(honest_sample(1, 5, 2));
  Rng rng(1);
  const AttackContext ctx{honest, honest.rows(), 1, 1};
  Vector forged(ctx.observed.dim());
  attack->forge_into(ctx, rng, forged);
  EXPECT_EQ(forged.size(), 5u);
  EXPECT_TRUE(vec::all_finite(forged));
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, AttackPropertyTest,
                         ::testing::ValuesIn(attack_names()));

TEST(AttackScaling, LittleOffsetScalesWithNu) {
  const auto honest = [] {
    Rng rng(3);
    std::vector<Vector> g;
    for (int i = 0; i < 8; ++i) g.push_back(rng.normal_vector(6, 0.5));
    return g;
  }();
  const Vector mean = stats::coordinate_mean(honest);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  Rng rng(1);
  const AttackContext ctx{observed, observed.rows(), 5, 1};
  Vector weak(ctx.observed.dim());
  make_attack("little", 0.5)->forge_into(ctx, rng, weak);
  Vector strong(ctx.observed.dim());
  make_attack("little", 2.0)->forge_into(ctx, rng, strong);
  EXPECT_NEAR(vec::dist(strong, mean) / vec::dist(weak, mean), 4.0, 1e-9);
}

TEST(AttackScaling, EmpireNuOneIsExactZero) {
  // (1 - nu) g_t with nu = 1 is the zero vector — the degenerate middle
  // of the Fall-of-Empires family.
  const auto honest = [] {
    Rng rng(3);
    std::vector<Vector> g;
    for (int i = 0; i < 4; ++i) g.push_back(rng.normal_vector(3, 1.0));
    return g;
  }();
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  Rng rng(1);
  const AttackContext ctx{observed, observed.rows(), 2, 1};
  Vector forged(ctx.observed.dim());
  make_attack("empire", 1.0)->forge_into(ctx, rng, forged);
  EXPECT_TRUE(vec::approx_equal(forged, vec::zeros(3), 1e-12));
}

TEST(AttackScaling, RandomAttackVariesAcrossCalls) {
  const auto honest = [] {
    Rng rng(3);
    std::vector<Vector> g;
    for (int i = 0; i < 4; ++i) g.push_back(rng.normal_vector(3, 1.0));
    return g;
  }();
  const auto attack = make_attack("random", std::nan(""));
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  Rng rng(5);
  const AttackContext ctx{observed, observed.rows(), 2, 1};
  Vector first(ctx.observed.dim()), second(ctx.observed.dim());
  attack->forge_into(ctx, rng, first);
  attack->forge_into(ctx, rng, second);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace dpbyz
