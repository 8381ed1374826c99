// Distribution-shape tests for the DP mechanisms: beyond mean/variance,
// verify the *kind* of noise each mechanism injects (a miscalibrated or
// mis-shaped randomizer silently voids the DP guarantee).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dp/gaussian_mechanism.hpp"
#include "dp/laplace_mechanism.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

/// Excess kurtosis of a sample: E[(x - mu)^4]/sigma^4 - 3.
/// Gaussian: 0.  Laplace: 3.
double excess_kurtosis(const std::vector<double>& xs) {
  const double m = stats::mean(xs);
  double m2 = 0.0, m4 = 0.0;
  for (double x : xs) {
    const double d = x - m;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= static_cast<double>(xs.size());
  m4 /= static_cast<double>(xs.size());
  return m4 / (m2 * m2) - 3.0;
}

std::vector<double> noise_sample(const NoiseMechanism& mech, size_t count, uint64_t seed) {
  Rng rng(seed);
  const Vector zero{0.0};
  Vector o(1);
  std::vector<double> xs;
  xs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    mech.perturb_into(zero, rng, o);
    xs.push_back(o[0]);
  }
  return xs;
}

TEST(NoiseShape, GaussianHasZeroExcessKurtosis) {
  const GaussianMechanism mech(0.5, 1e-6, 1.0);
  const auto xs = noise_sample(mech, 60000, 1);
  EXPECT_NEAR(excess_kurtosis(xs), 0.0, 0.15);
}

TEST(NoiseShape, LaplaceHasHeavyTails) {
  const LaplaceMechanism mech(0.5, 1.0);
  const auto xs = noise_sample(mech, 60000, 2);
  EXPECT_NEAR(excess_kurtosis(xs), 3.0, 0.5);
}

TEST(NoiseShape, GaussianQuantilesMatchTheory) {
  const GaussianMechanism mech(0.5, 1e-6, 1.0);
  const double s = mech.noise_stddev();
  auto xs = noise_sample(mech, 60000, 3);
  // Phi^{-1}(0.975) = 1.95996...
  EXPECT_NEAR(stats::quantile(xs, 0.975), 1.95996 * s, 0.05 * s);
  EXPECT_NEAR(stats::quantile(xs, 0.5), 0.0, 0.03 * s);
  EXPECT_NEAR(stats::quantile(xs, 0.025), -1.95996 * s, 0.05 * s);
}

TEST(NoiseShape, LaplaceQuantilesMatchTheory) {
  const double scale = 2.0;
  const LaplaceMechanism mech(1.0, 2.0);  // scale = sensitivity/eps = 2
  auto xs = noise_sample(mech, 60000, 4);
  // Laplace quantile: -scale * ln(2(1-p)) for p > 1/2; at p = 0.9: scale*ln(5).
  EXPECT_NEAR(stats::quantile(xs, 0.9), scale * std::log(5.0), 0.1 * scale);
  EXPECT_NEAR(stats::quantile(xs, 0.1), -scale * std::log(5.0), 0.1 * scale);
}

TEST(NoiseShape, CoordinatesAreIndependentish) {
  // Correlated coordinates would break the isotropic-noise assumption of
  // Eq. 6; check pairwise sample correlation is near zero.
  const GaussianMechanism mech(0.5, 1e-6, 1.0);
  Rng rng(5);
  const Vector zero(2, 0.0);
  std::vector<double> a, b;
  Vector o(zero.size());
  for (int i = 0; i < 30000; ++i) {
    mech.perturb_into(zero, rng, o);
    a.push_back(o[0]);
    b.push_back(o[1]);
  }
  const double ma = stats::mean(a), mb = stats::mean(b);
  double cov = 0.0;
  for (size_t i = 0; i < a.size(); ++i) cov += (a[i] - ma) * (b[i] - mb);
  cov /= static_cast<double>(a.size());
  const double corr = cov / (stats::stddev(a) * stats::stddev(b));
  EXPECT_NEAR(corr, 0.0, 0.02);
}

TEST(NoiseShape, NoiseIsFreshAcrossCalls) {
  // Reusing noise across steps is a classic DP implementation bug (the
  // second release would be free).  Same input, same mechanism, same rng
  // stream -> different outputs.
  const GaussianMechanism mech(0.5, 1e-6, 1.0);
  Rng rng(6);
  const Vector g{1.0, 2.0};
  Vector first(g.size()), second(g.size());
  mech.perturb_into(g, rng, first);
  mech.perturb_into(g, rng, second);
  EXPECT_NE(first, second);
}

TEST(NoiseShape, PerturbationIsAdditive) {
  // perturb_into(g) - g must not depend on g (pure noise injection): compare
  // the extracted noise from two different inputs under identical seeds.
  const GaussianMechanism mech(0.5, 1e-6, 1.0);
  Rng a(7), b(7);
  const Vector g1{0.0, 0.0}, g2{5.0, -3.0};
  Vector n1(g1.size()), n2(g2.size());
  mech.perturb_into(g1, a, n1);
  mech.perturb_into(g2, b, n2);
  vec::sub_inplace(n1, g1);
  vec::sub_inplace(n2, g2);
  EXPECT_TRUE(vec::approx_equal(n1, n2, 1e-12));
}

}  // namespace
}  // namespace dpbyz
