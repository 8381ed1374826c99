// Per-GAR unit tests: exact behaviour on hand-computable inputs,
// admissibility constraints, and the k_F(n, f) table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregation/aggregator.hpp"
#include "aggregation/average.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/cge.hpp"
#include "aggregation/geometric_median.hpp"
#include "aggregation/kf_table.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/meamed.hpp"
#include "aggregation/median.hpp"
#include "aggregation/phocas.hpp"
#include "aggregation/trimmed_mean.hpp"
#include "math/rng.hpp"

#include "aggregate.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> cluster_plus_outlier(size_t honest, size_t byz, double outlier_value) {
  std::vector<Vector> g;
  Rng rng(7);
  for (size_t i = 0; i < honest; ++i)
    g.push_back({1.0 + 0.01 * rng.normal(), 1.0 + 0.01 * rng.normal()});
  for (size_t i = 0; i < byz; ++i) g.push_back({outlier_value, -outlier_value});
  return g;
}

TEST(Average, IsExactMean) {
  Average agg(2, 0);
  const std::vector<Vector> g{{1.0, 3.0}, {3.0, 5.0}};
  EXPECT_EQ(support::aggregate(agg, g), (Vector{2.0, 4.0}));
  EXPECT_TRUE(std::isnan(agg.vn_threshold()));
}

TEST(Average, IsBrokenByOneOutlier) {
  // Documents *why* robust GARs exist: a single Byzantine worker moves
  // the average arbitrarily far.
  Average agg(5, 1);
  auto g = cluster_plus_outlier(4, 1, 1e6);
  const Vector out = support::aggregate(agg, g);
  EXPECT_GT(vec::norm(out), 1e5);
}

TEST(Krum, PicksAClusterMemberDespiteOutliers) {
  Krum agg(11, 4);  // n >= 2f + 3
  auto g = cluster_plus_outlier(7, 4, 100.0);
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
  EXPECT_NEAR(out[1], 1.0, 0.1);
}

TEST(Krum, OutputIsOneOfTheInputs) {
  Krum agg(7, 2);
  auto g = cluster_plus_outlier(5, 2, 50.0);
  const Vector out = support::aggregate(agg, g);
  bool found = false;
  for (const auto& v : g)
    if (v == out) found = true;
  EXPECT_TRUE(found);
}

TEST(Krum, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Krum(7, 2));   // n = 2f + 3
  EXPECT_THROW(Krum(6, 2), std::invalid_argument);
  EXPECT_THROW(Krum(4, 1), std::invalid_argument);
}

TEST(MultiKrum, AveragesBestCandidates) {
  MultiKrum agg(11, 4);
  auto g = cluster_plus_outlier(7, 4, 100.0);
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
}

TEST(Mda, SelectsTheTightCluster) {
  Mda agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 10.0);
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_subset_view(batch, ws);
  const auto& subset = ws.selected;
  EXPECT_EQ(subset.size(), 6u);
  for (size_t i : subset) EXPECT_LT(i, 6u);  // all honest indices
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.05);
}

TEST(Mda, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Mda(3, 1));  // n = 2f + 1
  EXPECT_THROW(Mda(2, 1), std::invalid_argument);
  EXPECT_THROW(Mda(4, 0), std::invalid_argument);
}

TEST(Mda, RefusesCombinatorialExplosion) {
  // f = 50 is far above the search's f <= 20 cap; the constructor must
  // refuse instead of hanging.
  EXPECT_THROW(Mda(101, 50), std::invalid_argument);
  EXPECT_NO_THROW(Mda(23, 11));
}

TEST(Mda, ExclusionCapBoundary) {
  // The search tree has at most 2^(f+1) - 1 nodes: f = kMaxF is the
  // largest budget accepted, at any n.
  EXPECT_NO_THROW(Mda(2 * Mda::kMaxF + 1, Mda::kMaxF));
  EXPECT_NO_THROW(Mda(1000, Mda::kMaxF));
  EXPECT_THROW(Mda(2 * Mda::kMaxF + 3, Mda::kMaxF + 1), std::invalid_argument);
}

TEST(Krum, ArgminTieBreaksLexicographically) {
  // Two identical scores: the lexicographically smaller row wins,
  // regardless of position.
  const std::vector<size_t> active{0, 1};
  const std::vector<double> scores{0.5, 0.5};
  const GradientBatch g =
      GradientBatch::from_vectors(std::vector<Vector>{{2.0, 0.0}, {1.0, 0.0}});
  EXPECT_EQ(krum_argmin_view(g, active, scores), 1u);
  const GradientBatch g2 =
      GradientBatch::from_vectors(std::vector<Vector>{{1.0, 0.0}, {2.0, 0.0}});
  EXPECT_EQ(krum_argmin_view(g2, active, scores), 0u);
}

TEST(Mda, MatchesBruteForceOnSmallInstance) {
  // n = 5, f = 2: 10 subsets of size 3; verify against exhaustive search.
  Mda agg(5, 2);
  Rng rng(3);
  std::vector<Vector> g;
  for (int i = 0; i < 5; ++i) g.push_back(rng.normal_vector(3, 1.0));

  double best = std::numeric_limits<double>::infinity();
  Vector best_mean;
  for (size_t a = 0; a < 5; ++a)
    for (size_t b = a + 1; b < 5; ++b)
      for (size_t c = b + 1; c < 5; ++c) {
        const double diam = std::max({vec::dist(g[a], g[b]), vec::dist(g[a], g[c]),
                                      vec::dist(g[b], g[c])});
        if (diam < best) {
          best = diam;
          const std::vector<size_t> idx{a, b, c};
          best_mean = vec::mean_of(g, idx);
        }
      }
  EXPECT_TRUE(vec::approx_equal(support::aggregate(agg, g), best_mean, 1e-12));
}

TEST(CoordinateMedian, ExactOnKnownInput) {
  CoordinateMedian agg(3, 1);
  const std::vector<Vector> g{{1.0, 10.0}, {2.0, -5.0}, {100.0, 0.0}};
  EXPECT_EQ(support::aggregate(agg, g), (Vector{2.0, 0.0}));
}

TEST(CoordinateMedian, AdmissibilityBoundary) {
  EXPECT_NO_THROW(CoordinateMedian(3, 1));  // 2f = n - 1
  EXPECT_THROW(CoordinateMedian(2, 1), std::invalid_argument);
}

TEST(TrimmedMean, DropsExtremesPerCoordinate) {
  TrimmedMean agg(5, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {2.0}, {3.0}, {1000.0}};
  // Drop 0 and 1000, average {1,2,3} = 2.
  EXPECT_EQ(support::aggregate(agg, g), (Vector{2.0}));
}

TEST(TrimmedMean, ScalarHelperValidates) {
  EXPECT_DOUBLE_EQ(TrimmedMean::trimmed_mean_scalar({5.0, 1.0, 3.0}, 1), 3.0);
  EXPECT_THROW(TrimmedMean::trimmed_mean_scalar({1.0, 2.0}, 1), std::invalid_argument);
}

TEST(TrimmedMean, AdmissibilityBoundary) {
  EXPECT_NO_THROW(TrimmedMean(3, 1));
  EXPECT_THROW(TrimmedMean(2, 1), std::invalid_argument);
}

TEST(Bulyan, RequiresLargeN) {
  EXPECT_NO_THROW(Bulyan(7, 1));  // n = 4f + 3
  EXPECT_THROW(Bulyan(6, 1), std::invalid_argument);
  EXPECT_THROW(Bulyan(10, 2), std::invalid_argument);
}

TEST(Bulyan, SelectsThetaIndices) {
  Bulyan agg(7, 1);
  auto g = cluster_plus_outlier(6, 1, 100.0);
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_indices_view(batch, ws);
  const auto& sel = ws.selected;
  EXPECT_EQ(sel.size(), 5u);  // theta = n - 2f
  // The far outlier (index 6) must not be selected.
  for (size_t i : sel) EXPECT_LT(i, 6u);
}

TEST(Bulyan, RobustToOutliers) {
  Bulyan agg(11, 2);
  auto g = cluster_plus_outlier(9, 2, 100.0);
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
  EXPECT_NEAR(out[1], 1.0, 0.1);
}

TEST(Meamed, MeanAroundMedianExact) {
  Meamed agg(3, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {100.0}};
  // median 1; two closest values {0, 1} -> mean 0.5.
  EXPECT_EQ(support::aggregate(agg, g), (Vector{0.5}));
}

TEST(Phocas, MeanAroundTrimmedMeanExact) {
  Phocas agg(3, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {100.0}};
  // trimmed mean (drop 0 and 100) = 1; closest two {0,1} -> 0.5.
  EXPECT_EQ(support::aggregate(agg, g), (Vector{0.5}));
}

TEST(Cge, KeepsSmallestNormGradients) {
  Cge agg(3, 1);
  const std::vector<Vector> g{{1.0, 0.0}, {0.0, 2.0}, {100.0, 100.0}};
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_indices_view(batch, ws);
  const auto& sel = ws.selected;
  EXPECT_EQ(sel.size(), 2u);
  // Norms 1, 2, 141: keep indices {0, 1}.
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
  EXPECT_EQ(support::aggregate(agg, g), (Vector{0.5, 1.0}));
}

TEST(Cge, FiltersLargeNormAttack) {
  Cge agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 1000.0);
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.05);
}

TEST(Cge, CannotFilterSmallNormAttack) {
  // The known weakness: a zero gradient has the smallest possible norm
  // and always survives norm filtering.  Documents the trade-off.
  Cge agg(3, 1);
  const std::vector<Vector> g{{1.0}, {1.1}, {0.0}};
  const Vector out = support::aggregate(agg, g);
  EXPECT_LT(out[0], 1.0);  // dragged toward zero by the surviving attacker
}

TEST(Cge, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Cge(3, 1));
  EXPECT_THROW(Cge(2, 1), std::invalid_argument);
}

TEST(GeometricMedian, MatchesMedianOnCollinearPoints) {
  GeometricMedian agg(3, 1);
  const std::vector<Vector> g{{0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}};
  const Vector out = support::aggregate(agg, g);
  // 1-d geometric median is the (coordinate) median.
  EXPECT_NEAR(out[0], 1.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-9);
}

TEST(GeometricMedian, RobustToMinorityOutliers) {
  GeometricMedian agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 1e4);
  const Vector out = support::aggregate(agg, g);
  EXPECT_NEAR(out[0], 1.0, 0.5);
}

TEST(KfTable, MatchesPaperValuesAtPaperSetting) {
  // n = 11, f = 5: MDA k = 6 / (sqrt(8) * 5).
  EXPECT_DOUBLE_EQ(kf::mda(11, 5), 6.0 / (std::sqrt(8.0) * 5.0));
  // Median: 1/sqrt(n - f) = 1/sqrt(6).
  EXPECT_DOUBLE_EQ(kf::median(11, 5), 1.0 / std::sqrt(6.0));
  EXPECT_DOUBLE_EQ(kf::meamed(11, 5), 1.0 / std::sqrt(60.0));
  // Trimmed mean at n=11, f=5: sqrt(1 / (2*6*6)) = 1/(6 sqrt 2).
  EXPECT_DOUBLE_EQ(kf::trimmed_mean(11, 5), std::sqrt(1.0 / 72.0));
  EXPECT_DOUBLE_EQ(kf::phocas(11, 5), std::sqrt(4.0 + 1.0 / (12.0 * 6.0 * 6.0)));
}

TEST(KfTable, KrumEtaFormula) {
  // n = 11, f = 4: eta = 7 + (4*5 + 16*6)/1 = 123.
  EXPECT_DOUBLE_EQ(kf::krum_eta(11, 4), 123.0);
  EXPECT_DOUBLE_EQ(kf::krum(11, 4), 1.0 / std::sqrt(246.0));
  EXPECT_THROW(kf::krum_eta(10, 4), std::invalid_argument);
}

TEST(KfTable, MdaHasLargestThresholdAtPaperSetting) {
  // §5.1: MDA has the largest VN bound among the presented GARs at
  // n = 11, f = 5 (Krum inadmissible there, compare the admissible ones).
  const double mda = kf::mda(11, 5);
  EXPECT_GT(mda, kf::median(11, 5));
  EXPECT_GT(mda, kf::meamed(11, 5));
  EXPECT_GT(mda, kf::trimmed_mean(11, 5));
}

TEST(Factory, CreatesEveryAdvertisedGar) {
  // n = 23, f = 5 is admissible for every rule in the registry.
  for (const auto& name : aggregator_names()) {
    const auto agg = make_aggregator(name, 23, 5);
    ASSERT_NE(agg, nullptr) << name;
    EXPECT_EQ(agg->name(), name);
    EXPECT_EQ(agg->n(), 23u);
    EXPECT_EQ(agg->f(), 5u);
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_aggregator("nope", 11, 5), std::invalid_argument);
}

TEST(Aggregator, RejectsMalformedInputs) {
  Average agg(3, 0);
  std::vector<Vector> wrong_count{{1.0}, {2.0}};
  EXPECT_THROW(support::aggregate(agg, wrong_count), std::invalid_argument);
  std::vector<Vector> ragged{{1.0}, {2.0}, {3.0, 4.0}};
  EXPECT_THROW(support::aggregate(agg, ragged), std::invalid_argument);
  std::vector<Vector> with_nan{{1.0}, {2.0}, {std::nan("")}};
  EXPECT_THROW(support::aggregate(agg, with_nan), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
