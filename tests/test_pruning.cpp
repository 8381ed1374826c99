// Tests for the prune knob (aggregation/aggregator.hpp, math/sketch.hpp):
//
//   * the JL sketch: symmetric, deterministic, roughly unbiased distance
//     matrix, and a projection that matches its documented hash;
//   * prune=approx: deterministic, and on well-separated committees the
//     sketch ranking agrees with the exact selection;
//   * config plumbing: parse/label/validate for the prune knob, and the
//     retired value "exact" failing loudly;
//   * thread-width determinism of the approx trainer path (the suite
//     name carries the MathKernelsThreaded prefix so the TSAN CI job
//     picks it up).
#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/aggregator.hpp"
#include "core/config.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/sketch.hpp"
#include "models/linear_model.hpp"

#include "aggregate.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> random_rows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, 1.0));
  return g;
}

TEST(PruneSketch, DistanceMatrixIsSymmetricDeterministicAndUnbiasedish) {
  const auto rows = random_rows(13, 257, 8);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  BatchSketch sketch;
  std::vector<double> a(13 * 13), b(13 * 13);
  sketch.fill_dist_sq(batch, a);
  sketch.fill_dist_sq(batch, b);
  EXPECT_EQ(a, b);  // pure function of the input bytes
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(a[i * 13 + i], 0.0);
    for (size_t j = 0; j < 13; ++j) EXPECT_EQ(a[i * 13 + j], a[j * 13 + i]);
  }
  // JL at k = 32 concentrates within a few sqrt(2/k) ≈ 25% of exact —
  // assert a loose factor-of-2 envelope, which a broken sketch (wrong
  // scaling, sign table, or indexing) misses by orders of magnitude.
  for (size_t i = 0; i < 13; ++i)
    for (size_t j = i + 1; j < 13; ++j) {
      const double exact = vec::dist_sq(batch.row(i), batch.row(j));
      EXPECT_GT(a[i * 13 + j], exact * 0.5);
      EXPECT_LT(a[i * 13 + j], exact * 2.0);
    }
}

TEST(PruneSketch, SignTableMatchesHashDefinition) {
  const auto rows = random_rows(3, 5, 9);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  BatchSketch sketch;
  sketch.compute(batch);
  // Reproject row 0 from scratch through the documented hash.
  const double scale = 1.0 / std::sqrt(static_cast<double>(BatchSketch::kDim));
  for (size_t l = 0; l < BatchSketch::kDim; ++l) {
    double acc = 0.0;
    for (size_t c = 0; c < 5; ++c) acc += batch.row(0)[c] * BatchSketch::sign(c, l);
    EXPECT_EQ(sketch.projected(0)[l], acc * scale);
  }
}

// ---- prune=approx -----------------------------------------------------------

TEST(PruneApprox, DeterministicAcrossCallsAndWorkspaces) {
  const auto inputs = random_rows(15, 65, 21);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  for (const char* name : {"krum", "multi-krum", "mda", "bulyan"}) {
    const auto agg = make_aggregator(name, 15, 3, PruneMode::kApprox);
    AggregatorWorkspace ws1, ws2;
    const auto v1 = agg->aggregate(batch, ws1);
    const Vector first(v1.begin(), v1.end());
    const auto v2 = agg->aggregate(batch, ws2);
    EXPECT_EQ(Vector(v2.begin(), v2.end()), first) << name;
    const auto v3 = agg->aggregate(batch, ws1);  // reuse
    EXPECT_EQ(Vector(v3.begin(), v3.end()), first) << name;
  }
}

TEST(PruneApprox, ExcludesByzantineOnWellSeparatedCommittees) {
  // Byzantine rows 1000 cluster-widths away: the sketch's ~25% relative
  // error cannot move a Byzantine row across that margin, so every
  // selection GAR must keep its output inside the honest cluster.  What
  // IS guaranteed varies by rule — among near-tied honest rows the
  // sketch may legitimately reorder, so only the rules whose selection
  // set is forced (MDA's unique honest (n-f)-subset) stay bit-identical
  // to exact; the others get the strongest assertion their contract
  // supports.
  const size_t n = 13, f = 2, d = 64;  // Bulyan needs n >= 4f + 3
  Rng rng(22);
  std::vector<Vector> rows;
  for (size_t i = 0; i < n - f; ++i) rows.push_back(rng.normal_vector(d, 0.01));
  for (size_t i = 0; i < f; ++i) {
    Vector v = rng.normal_vector(d, 0.01);
    v[0] += 10.0;
    rows.push_back(std::move(v));
  }
  const GradientBatch batch = GradientBatch::from_vectors(rows);

  auto aggregate = [&](const char* name, PruneMode mode) {
    return support::aggregate(*make_aggregator(name, n, f, mode), batch);
  };

  // Krum copies one row: the approx winner must be an honest row (any
  // Byzantine row's score is larger by ~f * 100 against a <= 25% sketch
  // error), though not necessarily exact mode's honest winner.
  {
    const Vector out = aggregate("krum", PruneMode::kApprox);
    bool is_honest_row = false;
    for (size_t i = 0; i < n - f; ++i)
      if (out == rows[i]) is_honest_row = true;
    EXPECT_TRUE(is_honest_row) << "approx Krum picked a non-honest row";
  }
  // MDA selects an (n-f)-subset: the only one free of the far rows is
  // the honest set itself, and the aggregate is its index-ordered mean —
  // bit-identical to exact mode.
  EXPECT_EQ(aggregate("mda", PruneMode::kApprox), aggregate("mda", PruneMode::kOff));
  // MultiKrum averages the m = n - f lowest-score rows — the honest set
  // again, but its accumulation order follows the (approx) score sort,
  // so the mean agrees only up to reassociation ULPs.
  {
    const Vector want = aggregate("multi-krum", PruneMode::kOff);
    const Vector got = aggregate("multi-krum", PruneMode::kApprox);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-12) << "multi-krum coordinate " << i;
  }
  // Bulyan's theta-subset of the honest rows may differ between the two
  // modes (honest rows are near-tied), but every selected row is honest,
  // so the trimmed mean stays inside the cluster: coordinate 0 must not
  // carry any of the +10 Byzantine offset.
  {
    const Vector want = aggregate("bulyan", PruneMode::kOff);
    const Vector got = aggregate("bulyan", PruneMode::kApprox);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_LT(std::abs(got[0]), 1.0);
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 0.1) << "bulyan coordinate " << i;
  }
}

// ---- config plumbing --------------------------------------------------------

TEST(PruneConfig, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_prune_mode("off"), PruneMode::kOff);
  EXPECT_EQ(parse_prune_mode("approx"), PruneMode::kApprox);
  EXPECT_THROW(parse_prune_mode("fast"), std::invalid_argument);
  EXPECT_STREQ(prune_mode_name(PruneMode::kOff), "off");
  EXPECT_STREQ(prune_mode_name(PruneMode::kApprox), "approx");
}

TEST(PruneConfig, ValidateAndLabelCarryTheKnob) {
  ExperimentConfig c;
  c.prune = "approx";
  c.validate();
  EXPECT_NE(c.label().find("+prune(approx)"), std::string::npos);
  c.prune = "banana";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.prune = "off";
  c.validate();
  EXPECT_EQ(c.label().find("+prune"), std::string::npos);
}

TEST(PruneConfig, RetiredExactModeFailsLoudly) {
  EXPECT_THROW(parse_prune_mode("exact"), std::invalid_argument);
  ExperimentConfig c;
  c.prune = "exact";
  try {
    c.validate();
    FAIL() << "validate() accepted prune = \"exact\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "config: prune must be off|approx");
  }
}

// ---- thread-width determinism (runs under the TSAN CI job) ------------------

TEST(MathKernelsThreadedPruning, TrainerPruneApproxBitIdenticalAcrossThreadWidths) {
  // Each tree child aggregates on its own workspace, hence its own
  // BatchSketch, concurrently at T > 1.
  BlobsConfig bc;
  bc.num_samples = 60;
  bc.num_features = 10;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 24);
  const LinearModel model(10, LinearLoss::kMseOnSigmoid);

  ExperimentConfig c;
  c.num_workers = 12;
  c.num_byzantine = 2;
  c.gar = "krum";
  c.tree_levels = 1;  // per-child workspaces aggregate concurrently at T>1
  c.tree_branch = 2;
  c.tree_merge_gar = "average";
  c.prune = "approx";
  c.steps = 5;
  c.eval_every = 5;
  c.batch_size = 5;
  c.threads = 1;
  const RunResult serial = Trainer(c, model, data, data).run();
  ExperimentConfig ct = c;
  ct.threads = 4;
  const RunResult threaded = Trainer(ct, model, data, data).run();
  EXPECT_EQ(threaded.final_parameters, serial.final_parameters);
  EXPECT_EQ(threaded.train_loss, serial.train_loss);
}

}  // namespace
}  // namespace dpbyz
