// Differential test of MDA's exact search (the kernelized vertex-cover
// walk in aggregation/mda.cpp) against the seed's depth-first subset
// enumeration, preserved as reference::mda_select.  The two must pick the
// same subset — the lexicographically first one of minimum diameter — on
// every input, ties included, and Mda's aggregate must equal the seed
// mean bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "aggregation/mda.hpp"
#include "math/rng.hpp"

#include "aggregate.hpp"
#include "reference_gars.hpp"

namespace dpbyz {
namespace {

enum class Shape { kGaussian, kSmallInt, kDuplicated, kIdentical, kAlie };

constexpr Shape kShapes[] = {Shape::kGaussian, Shape::kSmallInt, Shape::kDuplicated,
                             Shape::kIdentical, Shape::kAlie};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kGaussian: return "gaussian";
    case Shape::kSmallInt: return "small-int";
    case Shape::kDuplicated: return "duplicated";
    case Shape::kIdentical: return "identical";
    case Shape::kAlie: return "alie";
  }
  return "?";
}

/// C(n, k) as a double, the size of the seed's search space.
double binomial(size_t n, size_t k) {
  double c = 1.0;
  for (size_t i = 1; i <= k; ++i) c = c * static_cast<double>(n - k + i) / static_cast<double>(i);
  return c;
}

std::vector<Vector> make_rows(Shape shape, size_t n, size_t f, size_t d, Rng& rng) {
  std::vector<Vector> rows(n, Vector(d));
  switch (shape) {
    case Shape::kGaussian:
      for (Vector& r : rows) r = rng.normal_vector(d, 1.0);
      break;
    case Shape::kSmallInt:  // coordinates in {-2, ..., 2}: many tied distances
      for (Vector& r : rows)
        for (double& x : r) x = static_cast<double>(rng.uniform_index(5)) - 2.0;
      break;
    case Shape::kDuplicated:  // about half the rows copy an earlier one
      for (size_t i = 0; i < n; ++i)
        rows[i] = i > 0 && rng.bernoulli(0.5) ? rows[rng.uniform_index(i)]
                                               : rng.normal_vector(d, 1.0);
      break;
    case Shape::kIdentical:
      std::fill(rows.begin(), rows.end(), rng.normal_vector(d, 1.0));
      break;
    case Shape::kAlie: {  // f identical rows at mean - z sigma of the honest rows
      Vector mean(d, 0.0), sq(d, 0.0);
      for (size_t i = 0; i < n - f; ++i) {
        rows[i] = rng.normal_vector(d, 1.0);
        for (size_t c = 0; c < d; ++c) {
          mean[c] += rows[i][c];
          sq[c] += rows[i][c] * rows[i][c];
        }
      }
      // Near the mean (z = 0.5) the forged rows sit closer to each honest
      // row than the honest rows sit to one another, and the root's
      // kernel rule usually settles the call; z = 1.5 is the "a little is
      // enough" shift.
      const double z = rng.bernoulli(0.5) ? 0.5 : 1.5;
      Vector forged(d);
      for (size_t c = 0; c < d; ++c) {
        const double m = mean[c] / static_cast<double>(n - f);
        const double var = std::max(0.0, sq[c] / static_cast<double>(n - f) - m * m);
        forged[c] = m - z * std::sqrt(var);
      }
      for (size_t i = n - f; i < n; ++i) rows[i] = forged;
      break;
    }
  }
  return rows;
}

/// Mda's subset and aggregate against the seed's; returns a failure
/// description or "" when both are bit-identical.
std::string mismatch(const std::vector<Vector>& rows, size_t f) {
  const Mda mda(rows.size(), f);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  AggregatorWorkspace ws;
  mda.select_subset_view(batch, ws);
  if (ws.selected != reference::mda_select(rows, f)) return "subset differs";
  if (support::aggregate(mda, batch) != reference::mda(rows, f)) return "aggregate differs";
  return "";
}

TEST(MdaSearch, MatchesSeedEnumerationOnRandomTiedAndDuplicatedRows) {
  // n = 3..28, every admissible f with C(n, f) <= 2e5, every shape.
  Rng rng(20240917);
  size_t trials = 0, failures = 0;
  for (size_t round = 0; round < 8; ++round)
    for (size_t n = 3; n <= 28; ++n)
      for (size_t f = 1; 2 * f + 1 <= n && binomial(n, f) <= 2e5; ++f)
        for (const Shape shape : kShapes) {
          const size_t d = 1 + rng.uniform_index(4);
          const auto rows = make_rows(shape, n, f, d, rng);
          const std::string why = mismatch(rows, f);
          ++trials;
          if (!why.empty() && ++failures <= 5)
            ADD_FAILURE() << why << ": n=" << n << " f=" << f << " d=" << d
                          << " shape=" << shape_name(shape) << " round=" << round;
        }
  EXPECT_GE(trials, 5000u);
  EXPECT_EQ(failures, 0u) << "of " << trials << " trials";
}

TEST(MdaSearch, MatchesSeedOnWideGaussianCommittees) {
  // n >= 25 at f = 2 on Gaussian rows: the root's incumbent seldom
  // forces both exclusions, so these reach the search-tree walk.
  Rng rng(7);
  for (size_t n : {25, 26, 31, 40, 50})
    for (size_t d : {1, 3, 69}) {
      for (size_t trial = 0; trial < 6; ++trial) {
        const auto rows = make_rows(Shape::kGaussian, n, 2, d, rng);
        EXPECT_EQ(mismatch(rows, 2), "") << "n=" << n << " d=" << d << " trial=" << trial;
      }
    }
}

TEST(MdaSearch, MatchesSeedBeyondTheRetiredSubsetCap) {
  // C(25, 12) ~ 5.2e6 and C(30, 8) ~ 5.9e6 exceed the 5e6 subsets the
  // seed's enumeration was capped at; both shapes are clustered enough
  // for that enumeration to finish quickly.
  EXPECT_GT(binomial(25, 12), 5e6);
  EXPECT_GT(binomial(30, 8), 5e6);
  Rng rng(11);
  for (const Shape shape : {Shape::kAlie, Shape::kIdentical}) {
    EXPECT_EQ(mismatch(make_rows(shape, 25, 12, 5, rng), 12), "") << shape_name(shape);
    EXPECT_EQ(mismatch(make_rows(shape, 30, 8, 5, rng), 8), "") << shape_name(shape);
  }
}

}  // namespace
}  // namespace dpbyz
