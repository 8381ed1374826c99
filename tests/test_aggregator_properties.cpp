// Property-based tests run over EVERY registered GAR (TEST_P sweep):
//   * permutation invariance (the definition demands a symmetric F),
//   * agreement with the input when all gradients are identical,
//   * output confined to the honest bounding box / ball under f outliers,
//   * the (alpha, f) inner-product condition <E[F], grad> > 0 measured
//     empirically when the VN condition holds,
//   * determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregation/aggregator.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"

#include "aggregate.hpp"

namespace dpbyz {
namespace {

struct GarCase {
  std::string name;
  size_t n;
  size_t f;
};

std::ostream& operator<<(std::ostream& os, const GarCase& c) {
  return os << c.name << "_n" << c.n << "_f" << c.f;
}

// Each GAR at an admissible (n, f) — including the paper's n = 11, f = 5
// for the rules that admit it.
const GarCase kCases[] = {
    {"average", 11, 0},      {"krum", 11, 4},         {"multi-krum", 11, 4},
    {"mda", 11, 5},          {"median", 11, 5},       {"trimmed-mean", 11, 5},
    {"bulyan", 11, 2},       {"meamed", 11, 5},       {"phocas", 11, 5},
    {"geometric-median", 11, 5},
    // second admissible configuration to vary (n, f)
    {"krum", 15, 6},         {"mda", 15, 7},          {"median", 9, 4},
    {"trimmed-mean", 7, 3},  {"bulyan", 15, 3},       {"meamed", 9, 4},
    {"phocas", 9, 4},        {"multi-krum", 9, 3},    {"cge", 11, 5},
    {"cge", 9, 4},
};

class GarPropertyTest : public ::testing::TestWithParam<GarCase> {
 protected:
  std::unique_ptr<Aggregator> make() const {
    const auto& c = GetParam();
    return make_aggregator(c.name, c.n, c.f);
  }

  /// n gradients: n - f honest near `center`, f Byzantine far away.
  std::vector<Vector> adversarial_inputs(const Vector& center, double spread,
                                         double outlier_scale, uint64_t seed) const {
    const auto& c = GetParam();
    Rng rng(seed);
    std::vector<Vector> g;
    for (size_t i = 0; i < c.n - c.f; ++i) {
      Vector v = center;
      vec::add_inplace(v, rng.normal_vector(center.size(), spread));
      g.push_back(std::move(v));
    }
    for (size_t i = 0; i < c.f; ++i) {
      Vector v = rng.normal_vector(center.size(), 1.0);
      vec::scale_inplace(v, outlier_scale / std::max(vec::norm(v), 1e-12));
      g.push_back(std::move(v));
    }
    return g;
  }
};

TEST_P(GarPropertyTest, PermutationInvariant) {
  const auto agg = make();
  auto g = adversarial_inputs(Vector{1.0, -2.0, 0.5}, 0.1, 30.0, 1);
  const Vector base = support::aggregate(*agg, g);
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const auto perm = rng.permutation(g.size());
    std::vector<Vector> shuffled(g.size());
    for (size_t i = 0; i < g.size(); ++i) shuffled[i] = g[perm[i]];
    EXPECT_TRUE(vec::approx_equal(support::aggregate(*agg, shuffled), base, 1e-9))
        << "permutation trial " << trial;
  }
}

TEST_P(GarPropertyTest, IdenticalInputsPassThrough) {
  const auto agg = make();
  const Vector v{0.3, -1.0, 2.0};
  const std::vector<Vector> g(GetParam().n, v);
  EXPECT_TRUE(vec::approx_equal(support::aggregate(*agg, g), v, 1e-9));
}

TEST_P(GarPropertyTest, Deterministic) {
  const auto agg = make();
  auto g = adversarial_inputs(Vector{1.0, 1.0}, 0.2, 50.0, 2);
  EXPECT_EQ(support::aggregate(*agg, g), support::aggregate(*agg, g));
}

TEST_P(GarPropertyTest, RobustRulesStayNearHonestClusterUnderFarOutliers) {
  const auto& c = GetParam();
  if (c.name == "average" || c.f == 0) GTEST_SKIP() << "not a robust rule";
  const auto agg = make();
  const Vector center{2.0, -1.0, 0.5, 3.0};
  for (uint64_t seed : {1, 2, 3}) {
    const auto g = adversarial_inputs(center, 0.05, 1000.0, seed);
    const Vector out = support::aggregate(*agg, g);
    // Output must stay within a modest multiple of the honest spread of
    // the cluster, far from the 1000-scale outliers.
    EXPECT_LT(vec::dist(out, center), 1.0) << "seed " << seed;
  }
}

TEST_P(GarPropertyTest, PositiveInnerProductWithTrueGradient) {
  // Empirical check of resilience condition (1): <E[F], grad Q> > 0 when
  // honest gradients concentrate around grad Q and outliers are far.
  const auto& c = GetParam();
  if (c.name == "average" || c.f == 0) GTEST_SKIP() << "not a robust rule";
  const auto agg = make();
  const Vector true_grad{1.0, 0.5, -0.5};
  Vector mean_out(3, 0.0);
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const auto g = adversarial_inputs(true_grad, 0.05, 100.0,
                                      static_cast<uint64_t>(trial + 10));
    vec::add_inplace(mean_out, support::aggregate(*agg, g));
  }
  vec::scale_inplace(mean_out, 1.0 / trials);
  EXPECT_GT(vec::dot(mean_out, true_grad), 0.0);
}

TEST_P(GarPropertyTest, OutputWithinCoordinateRangeOfInputsForCoordinateRules) {
  // Coordinate-wise rules (median/trimmed-mean/meamed/phocas) must output
  // values within the per-coordinate min/max of the inputs.
  const auto& c = GetParam();
  const bool coordinate_rule = c.name == "median" || c.name == "trimmed-mean" ||
                               c.name == "meamed" || c.name == "phocas";
  if (!coordinate_rule) GTEST_SKIP() << "not a coordinate-wise rule";
  const auto agg = make();
  const auto g = adversarial_inputs(Vector{0.0, 5.0}, 1.0, 20.0, 4);
  const Vector out = support::aggregate(*agg, g);
  for (size_t coord = 0; coord < out.size(); ++coord) {
    double lo = g[0][coord], hi = g[0][coord];
    for (const auto& v : g) {
      lo = std::min(lo, v[coord]);
      hi = std::max(hi, v[coord]);
    }
    EXPECT_GE(out[coord], lo - 1e-9);
    EXPECT_LE(out[coord], hi + 1e-9);
  }
}

TEST_P(GarPropertyTest, TranslationEquivariantOnSymmetricInputs) {
  // Most of our GARs commute with translation: F(g + c) = F(g) + c.  This
  // is exact for distance/order-statistic rules and holds for Weiszfeld
  // too.  CGE is the exception by design — it filters on absolute norms,
  // which are not translation-invariant.
  if (GetParam().name == "cge") GTEST_SKIP() << "norm filtering is not equivariant";
  const auto agg = make();
  auto g = adversarial_inputs(Vector{1.0, 2.0}, 0.3, 10.0, 5);
  const Vector shift{3.0, -4.0};
  std::vector<Vector> shifted;
  shifted.reserve(g.size());
  for (const auto& v : g) shifted.push_back(vec::add(v, shift));
  const Vector lhs = support::aggregate(*agg, shifted);
  const Vector rhs = vec::add(support::aggregate(*agg, g), shift);
  EXPECT_TRUE(vec::approx_equal(lhs, rhs, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(AllGars, GarPropertyTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GarCase>& info) {
                           std::string s = info.param.name + "_n" +
                                           std::to_string(info.param.n) + "_f" +
                                           std::to_string(info.param.f);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

}  // namespace
}  // namespace dpbyz
