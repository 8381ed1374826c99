// Tests for the recursive HierarchicalAggregator: hexfloat-pinned L = 1
// outputs (incl. adversarial ties and threading), B = 1
// bit-identity with the flat rules, the framed-but-ideal wire, recursive
// budget derivation, admissibility failures naming the node path,
// resilience under concentrated and spread Byzantine rows, the weighted
// average merge, the config/trainer plumbing, and the lossy-channel
// properties — bit-reproducible runs, stats in RunResult, and the
// substitution budget.
#include "aggregation/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"

#include "aggregate.hpp"

namespace dpbyz {
namespace {

/// Seeded cluster of rows around a shifted mean, the honest population.
GradientBatch honest_batch(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  GradientBatch batch(n, d);
  for (size_t i = 0; i < n; ++i) {
    const Vector v = rng.normal_vector(d, 1.0);
    batch.set_row(i, v);
    batch.row(i)[0] += 2.0;
  }
  return batch;
}

// ---- L = 1 goldens: the two-level split, pinned ---------------------------

/// (n = 21, f = 2) rows of width 5: B = 3 gives 7-row leaves at f_child =
/// ceil(2/3) = 1, admissible for every registered rule incl. bulyan
/// (4f + 3 = 7).  `duplicates` overwrites the last f rows with one
/// identical extreme value — the colluding, tie-heavy shape that exposes
/// any ordering difference.
GradientBatch l1_golden_batch(bool duplicates) {
  const size_t n = 21, f = 2, d = 5;
  GradientBatch batch = honest_batch(n, d, duplicates ? 9 : 7);
  if (duplicates) {
    for (size_t i = n - f; i < n; ++i) {
      for (size_t c = 0; c < d; ++c) batch.row(i)[c] = 1e3;
    }
  }
  return batch;
}

struct PinnedAggregate {
  std::string gar;
  Vector want;
};

// tree(<gar>/median, L = 1, B = 3) at (n = 21, f = 2), in
// aggregator_names() order.  Captured as hexfloats (exact doubles) from
// the former two-level sharded aggregator (S = 3), where prune = off and
// exact, serial and 4-thread dispatch all produced these same bits.
const std::vector<PinnedAggregate> kL1Random{
    {"average",
     {0x1.2b41b5b2da2c9p+1, 0x1.5ae2dde782164p-3, -0x1.e00f6954ece02p-3,
      0x1.1fbcf32c832bcp-2, -0x1.6de37dbd4cd5bp-3}},
    {"krum",
     {0x1.794f82adece3cp+1, 0x1.0d5aae415b86ap-2, -0x1.1068025612359p-2,
      0x1.99ef4d9b5809ep-2, -0x1.0d58b72238a91p-1}},
    {"multi-krum",
     {0x1.3f8094dc95a5ep+1, 0x1.3a2e80d49952bp-4, -0x1.c6d06e463d6dcp-2,
      0x1.f1e346dc22235p-3, -0x1.0d92009bfa8c7p-2}},
    {"mda",
     {0x1.3f07c3840e3fdp+1, 0x1.ae60687915b2p-4, -0x1.2f099b9f9fb5cp-2,
      0x1.8cbf41db7aa9p-3, -0x1.5ca0c33f3e4eap-5}},
    {"median",
     {0x1.2e09a70bf6189p+1, 0x1.0d5aae415b86ap-2, -0x1.2cd484e3a94a7p-5,
      -0x1.4279327211cbdp-3, -0x1.4e906fc0627e2p-2}},
    {"trimmed-mean",
     {0x1.2bd877f89190ap+1, 0x1.a42af5f29482dp-3, -0x1.4abd1b769af38p-3,
      0x1.32d05fb9ce326p-5, -0x1.ca8dc2396038ap-3}},
    {"bulyan",
     {0x1.302bd0c55abc1p+1, 0x1.20807192a0aedp-1, -0x1.5e44421705acdp-6,
      -0x1.1e7b265e0c024p-3, -0x1.0dcf6ae005303p-2}},
    {"meamed",
     {0x1.3f8094dc95a5ep+1, 0x1.3a2e80d49952bp-4, -0x1.e063adb4f5675p-5,
      -0x1.0a317af630a6fp-3, -0x1.0e14033cd8e6ap-1}},
    {"phocas",
     {0x1.3f8094dc95a5ep+1, 0x1.3a2e80d49952bp-4, -0x1.e063adb4f5675p-5,
      -0x1.0a317af630a71p-3, -0x1.0e14033cd8e69p-1}},
    {"cge",
     {0x1.1780786de2314p+1, 0x1.b662be6dbbacp-2, 0x1.27c52b1a402c5p-5,
      -0x1.0a317af630a7p-3, -0x1.bdedb15676f9ap-4}},
    {"geometric-median",
     {0x1.3a5668777a6e3p+1, 0x1.0c259558c6b05p-2, -0x1.22b9b6014d536p-2,
      0x1.393145a0bdc04p-3, -0x1.c56855cf8ddfp-3}},
};
const std::vector<PinnedAggregate> kL1Duplicates{
    {"average",
     {0x1.14ec5969d39fbp+1, 0x1.96442d29eeadbp-4, -0x1.489deb6328b6cp-1,
      0x1.ef005314aef34p-3, 0x1.8b6c5603c3da6p-3}},
    {"krum",
     {0x1.2b269f28a6822p+1, -0x1.0e63a155d6c77p-2, -0x1.7980b9d40edc3p-2,
      0x1.b2628a1f9112ap-2, 0x1.14cb2cc337f47p-1}},
    {"multi-krum",
     {0x1.e2c6eb2a67876p+0, 0x1.52bef09ecee5p-2, -0x1.67fb5e5c792e8p-1,
      0x1.b4675763e452p-2, -0x1.4f8b0f90b1522p-5}},
    {"mda",
     {0x1.4204c473b7695p+1, 0x1.d3df49e6992dap-4, -0x1.384b287e3ac9fp-1,
      0x1.9518e6a9ebde5p-3, 0x1.05e02d78644b8p-2}},
    {"median",
     {0x1.ef0cda0893728p+0, 0x1.250c05ef7d6f5p-7, -0x1.1f1e1d99397ffp-2,
      -0x1.717b620c6a782p-3, 0x1.67fc7f61ea387p-2}},
    {"trimmed-mean",
     {0x1.1a92060ca850bp+1, 0x1.620892e9bc726p-3, -0x1.44cf813da7f4ap-2,
      0x1.43e816b9c0fdap-3, 0x1.77e6fc308ddcdp-3}},
    {"bulyan",
     {0x1.9fabe0d9f49a5p+0, -0x1.9852dc390cad3p-4, -0x1.cb6dad9f564fbp-2,
      -0x1.687f301a61dd5p-8, 0x1.1c85f688cdce7p-1}},
    {"meamed",
     {0x1.d91151cf42287p+0, 0x1.52bef09ecee5p-2, -0x1.1a4b72c96c1cbp-2,
      -0x1.9623aea310ap-7, 0x1.ad3b7d332e305p-2}},
    {"phocas",
     {0x1.4204c473b7695p+1, 0x1.52bef09ecee5p-2, -0x1.1a4b72c96c1cbp-2,
      -0x1.9623aea310a15p-7, 0x1.114f2f751cae9p-4}},
    {"cge",
     {0x1.da6643d496698p+0, 0x1.52bef09ecee5p-2, -0x1.384b287e3acap-1,
      0x1.b4675763e451ep-2, 0x1.05e02d78644b9p-2}},
    {"geometric-median",
     {0x1.e2e31e8690171p+0, 0x1.42a4807ea5f39p-7, -0x1.02f02f72619dp-1,
      -0x1.604a8d4134648p-3, 0x1.f24e8e8c0dd38p-3}},
};

void expect_l1_matches_pins(const std::vector<PinnedAggregate>& pins, bool duplicates) {
  const GradientBatch batch = l1_golden_batch(duplicates);
  const auto names = aggregator_names();
  ASSERT_EQ(pins.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(pins[i].gar, names[i]);
    for (const size_t threads : {1, 4}) {
      const HierarchicalAggregator tree(names[i], "median", 21, 2, /*levels=*/1,
                                        /*branch=*/3, threads);
      EXPECT_EQ(support::aggregate(tree, batch), pins[i].want)
          << "L=1 tree " << names[i] << " diverged from its pin (threads " << threads << ")";
    }
  }
}

TEST(HierarchicalGolden, L1MatchesPinnedOutputsForEveryRule) {
  expect_l1_matches_pins(kL1Random, /*duplicates=*/false);
}

TEST(HierarchicalGolden, L1MatchesPinnedOutputsOnAdversarialDuplicates) {
  expect_l1_matches_pins(kL1Duplicates, /*duplicates=*/true);
}

TEST(HierarchicalGolden, B1BitIdenticalToFlatForEveryRule) {
  // One child holding every row: the merge stage sees a single aggregate
  // and the tree degenerates to the flat rule bit for bit — on random
  // rows and on f colluding duplicates.
  const size_t n = 11, f = 2;
  const GradientBatch random = honest_batch(n, 33, 7);
  GradientBatch duplicates = honest_batch(n, 17, 9);
  for (size_t i = n - f; i < n; ++i) {
    for (size_t c = 0; c < duplicates.dim(); ++c) duplicates.row(i)[c] = 1e3;
  }
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator tree(gar, "median", n, f, 1, 1);
    const auto flat = make_aggregator(gar, n, f);
    EXPECT_EQ(support::aggregate(tree, random), support::aggregate(*flat, random)) << gar;
    EXPECT_EQ(support::aggregate(tree, duplicates), support::aggregate(*flat, duplicates)) << gar;
  }
}

TEST(HierarchicalGolden, ThreadedDispatchMatchesSerialBitForBit) {
  // n = 45 over L = 2, B = 3: 15-row children, 5-row krum leaves at
  // f_child = 1 (exactly the 2f + 3 floor).
  const size_t n = 45, f = 2, d = 64;
  const GradientBatch batch = honest_batch(n, d, 31);
  const HierarchicalAggregator serial("krum", "median", n, f, 2, 3, /*threads=*/1);
  const HierarchicalAggregator threaded("krum", "median", n, f, 2, 3, /*threads=*/4);
  // threads = 0 means hardware concurrency — the parallel path, not a
  // silent fallback to serial.
  const HierarchicalAggregator hw_threads("krum", "median", n, f, 2, 3, /*threads=*/0);
  const Vector want = support::aggregate(serial, batch);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(support::aggregate(threaded, batch), want);
    EXPECT_EQ(support::aggregate(hw_threads, batch), want);
  }
}

TEST(HierarchicalGolden, IdealFramedLinkStaysBitIdentical) {
  // raw64 frames over a fault-free channel: every edge encodes, ships
  // and reassembles byte-exactly, so the framed tree must equal the
  // in-memory tree (and hence its pinned outputs) bit for bit.
  const size_t n = 21, f = 2, d = 23;
  const GradientBatch batch = honest_batch(n, d, 15);
  const net::LinkConfig link;  // raw64, no faults
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator framed(gar, "median", n, f, 1, 3, 1,
                                        PruneMode::kOff, &link);
    const HierarchicalAggregator plain(gar, "median", n, f, 1, 3);
    EXPECT_TRUE(framed.framed());
    EXPECT_FALSE(plain.framed());
    EXPECT_EQ(support::aggregate(framed, batch), support::aggregate(plain, batch)) << gar;
  }
  // The ideal link still pushes real frames: stats count them.
  const HierarchicalAggregator framed("median", "median", n, f, 1, 3, 1,
                                      PruneMode::kOff, &link);
  support::aggregate(framed, batch);
  const net::ChannelStats stats = framed.channel_stats();
  EXPECT_EQ(stats.frames_sent, 3u);  // one chunk per child edge at d = 23
  EXPECT_EQ(stats.frames_delivered, 3u);
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.rows_substituted, 0u);
}

// ---- recursive budget derivation -------------------------------------------

TEST(Hierarchical, BudgetRecursesTheStageBoundPerLevel) {
  // n = 27, f = 3, L = 2, B = 3: the root provisions child_f =
  // ceil(3/3) = 1 and merges at f_merge = floor(3/2) = 1; each child is
  // a (9, 1) one-level tree with child_f = 1 and f_merge = floor(1/2) =
  // 0 over its three 3-row median leaves.
  const HierarchicalAggregator tree("median", "median", 27, 3, 2, 3);
  EXPECT_EQ(tree.levels(), 2u);
  EXPECT_EQ(tree.branch(), 3u);
  EXPECT_EQ(tree.child_f(), 1u);
  EXPECT_EQ(tree.merge_f(), 1u);
  EXPECT_EQ(tree.merge_rule().n(), 3u);
  EXPECT_EQ(tree.merge_rule().f(), 1u);
  EXPECT_EQ(tree.name(), "tree(median/median,L=2,B=3)");

  // Children partition the rows contiguously, sizes within one.
  size_t expected_lo = 0;
  for (size_t b = 0; b < tree.branch(); ++b) {
    const auto [lo, hi] = tree.child_range(b);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_EQ(hi - lo, 9u);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 27u);
  EXPECT_THROW(tree.child_range(3), std::invalid_argument);

  // An uneven split: n = 13 over B = 4 gives children of 3/3/3/4 rows,
  // contiguous, in order, never empty, covering every row exactly once.
  const HierarchicalAggregator uneven("median", "median", 13, 1, 1, 4);
  expected_lo = 0;
  size_t min_size = 13, max_size = 0;
  for (size_t b = 0; b < uneven.branch(); ++b) {
    const auto [lo, hi] = uneven.child_range(b);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LT(lo, hi);
    min_size = std::min(min_size, hi - lo);
    max_size = std::max(max_size, hi - lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 13u);
  EXPECT_LE(max_size - min_size, 1u);

  // Each child really is the recursive case with the derived budget.
  const auto* sub = dynamic_cast<const HierarchicalAggregator*>(&tree.child(0));
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->levels(), 1u);
  EXPECT_EQ(sub->n(), 9u);
  EXPECT_EQ(sub->f(), 1u);
  EXPECT_EQ(sub->child_f(), 1u);
  EXPECT_EQ(sub->merge_f(), 0u);
  EXPECT_EQ(sub->child(0).n(), 3u);  // a flat median leaf
  EXPECT_EQ(sub->child(0).f(), 1u);
}

TEST(Hierarchical, InadmissibleLevelNamesTheNodePathAndBudget)
{
  // n = 12, f = 2, L = 2, B = 2: the root's children are (6, 1) trees
  // whose 3-row leaves cannot host krum at f_child = 1 (needs 2f + 3 =
  // 5 rows).  The error must name the failing node's path and budget.
  try {
    const HierarchicalAggregator tree("krum", "median", 12, 2, 2, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node root.0"), std::string::npos) << what;
    EXPECT_NE(what.find("f_child 1"), std::string::npos) << what;
  }
}

TEST(Hierarchical, ConstructionSanityChecks) {
  // Empty leaves: B^L = 16 > n = 10.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 2, 4),
               std::invalid_argument);
  // Degenerate parameters.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 1, 0),
               std::invalid_argument);
  // Unknown rule names propagate from make_aggregator.
  EXPECT_THROW(HierarchicalAggregator("nope", "median", 12, 1, 1, 3),
               std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator("median", "nope", 12, 1, 1, 3),
               std::invalid_argument);
  // Merge stage: f = 2 over B = 2 gives f_child = 1, f_merge = 1, and
  // median needs B >= 2 f_merge + 1 = 3 — the documented worst-case price
  // of a small fan-out, not a bug.  The same f over B = 3 is fine.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 12, 2, 1, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(HierarchicalAggregator("median", "median", 12, 2, 1, 3));
  // A deep-but-admissible tree is fine: 2^3 = 8 leaves over 16 rows.
  EXPECT_NO_THROW(HierarchicalAggregator("median", "median", 16, 0, 3, 2));
}

// ---- resilience and the weighted merge -------------------------------------

/// Asserts every coordinate of `out` lies inside the envelope of the
/// batch rows not listed in `byzantine`.
void expect_in_honest_envelope(const Vector& out, const GradientBatch& batch,
                               const std::vector<size_t>& byzantine,
                               const std::string& label = "") {
  for (size_t c = 0; c < batch.dim(); ++c) {
    double lo = 1e18, hi = -1e18;
    for (size_t i = 0; i < batch.rows(); ++i) {
      if (std::find(byzantine.begin(), byzantine.end(), i) != byzantine.end()) continue;
      lo = std::min(lo, batch.row(i)[c]);
      hi = std::max(hi, batch.row(i)[c]);
    }
    ASSERT_GE(out[c], lo) << label << " coordinate " << c;
    ASSERT_LE(out[c], hi) << label << " coordinate " << c;
  }
}

/// Overwrites rows `byzantine` of `batch` with the constant `value`.
void poison(GradientBatch& batch, const std::vector<size_t>& byzantine, double value) {
  for (size_t i : byzantine) {
    for (size_t c = 0; c < batch.dim(); ++c) batch.row(i)[c] = value;
  }
}

TEST(HierarchicalResilience, UpperMergeAbsorbsAnOverwhelmedLeaf) {
  // n = 27, f = 3, L = 2, B = 3 (budgets as above) with all three
  // Byzantine rows packed into leaf root.0/0 — triple its f = 1 budget,
  // so that leaf's aggregate is arbitrary.  Child root.0's median over
  // its three leaf aggregates and the root's (3, 1) median both stay
  // inside the honest envelope.
  GradientBatch batch = honest_batch(27, 16, 19);
  poison(batch, {0, 1, 2}, 1e6);
  const HierarchicalAggregator tree("median", "median", 27, 3, 2, 3);
  expect_in_honest_envelope(support::aggregate(tree, batch), batch, {0, 1, 2});
}

TEST(HierarchicalResilience, L1MergeAbsorbsAFullyCorruptedChild) {
  // n = 16, B = 4, f = 2 with BOTH Byzantine rows in child 0: its 4 rows
  // hold 2 poisoned ones, over its f_child = 1 budget, so the inner
  // median (mean of the two middle values) leaves the honest range.  The
  // (4, 1) merge median must absorb that corrupted aggregate.
  GradientBatch batch = honest_batch(16, 8, 19);
  poison(batch, {0, 1}, 1e6);
  const HierarchicalAggregator tree("median", "median", 16, 2, 1, 4);
  ASSERT_EQ(tree.child_f(), 1u);
  ASSERT_EQ(tree.merge_f(), 1u);
  const auto [lo0, hi0] = tree.child_range(0);
  const Vector child0 = support::aggregate(tree.child(0), batch.view(lo0, hi0));
  double honest_max = -1e18;
  for (size_t i = 2; i < 16; ++i) honest_max = std::max(honest_max, batch.row(i)[0]);
  EXPECT_GT(child0[0], honest_max) << "child 0 should have escaped the honest envelope";
  expect_in_honest_envelope(support::aggregate(tree, batch), batch, {0, 1});
}

TEST(HierarchicalResilience, L1ConcentratedAndSpreadByzantinePlacements) {
  // n = 24, B = 4, f = 2: f_child = 1, f_merge = floor(2/2) = 1.
  // Concentrated: both Byzantine rows land in child 0 (rows 0-5),
  // exceeding its budget, and the merge absorbs that child.
  GradientBatch concentrated = honest_batch(24, 16, 21);
  poison(concentrated, {0, 1}, 1e6);
  for (const char* inner : {"krum", "median", "mda"}) {
    const HierarchicalAggregator tree(inner, "median", 24, 2, 1, 4);
    expect_in_honest_envelope(support::aggregate(tree, concentrated), concentrated, {0, 1},
                              inner);
  }
  // Spread: one Byzantine row in child 0 and one in child 2 (rows
  // 12-17), each within its budget, so every child aggregate is already
  // resilient.
  GradientBatch spread = honest_batch(24, 16, 22);
  poison(spread, {3, 14}, -1e6);
  const HierarchicalAggregator tree("median", "median", 24, 2, 1, 4);
  expect_in_honest_envelope(support::aggregate(tree, spread), spread, {3, 14});
}

TEST(HierarchicalWeightedMerge, UnevenSubtreesTrackTheFlatAverage) {
  // n = 10 over L = 2, B = 3: root children of 3/3/4 rows, the last
  // with uneven leaves of its own.  The subtree-size weighting composes
  // through the levels into the flat mean over all n rows.
  const size_t n = 10, d = 16;
  const GradientBatch batch = honest_batch(n, d, 40);
  const HierarchicalAggregator tree("average", "average", n, 0, 2, 3);
  EXPECT_TRUE(tree.weighted_merge());
  const Vector got = support::aggregate(tree, batch);
  const auto flat = make_aggregator("average", n, 0);
  const Vector want = support::aggregate(*flat, batch);
  EXPECT_TRUE(vec::approx_equal(got, want, 1e-13))
      << "subtree-weighted tree average diverged from the flat average";
}

TEST(HierarchicalWeightedMerge, L1UnevenAverageMatchesPinnedOutputs) {
  // One level over uneven children: n = 10 over B = 3 (3/3/4 rows) and
  // n = 22 over B = 4 (5/6/5/6), serial and 4-thread dispatch.  Pinned
  // as hexfloats from the former two-level sharded aggregator.
  const Vector want10{0x1.23bed22c8d863p+1, 0x1.44f9de702a079p-3,
                      -0x1.a2b633bd45667p-3, -0x1.0eac307f8184p-4,
                      0x1.faab1708dbec8p-3};
  const Vector want22{0x1.f1ed4a87506ffp+0, 0x1.23135327395a3p-9,
                      0x1.8135f29eee5bcp-5, 0x1.a381035fe7835p-5,
                      0x1.afe557c9d678cp-7};
  for (const size_t threads : {1, 4}) {
    const HierarchicalAggregator ten("average", "average", 10, 0, 1, 3, threads);
    EXPECT_TRUE(ten.weighted_merge());
    EXPECT_EQ(support::aggregate(ten, honest_batch(10, 5, 40)), want10) << threads;
    const HierarchicalAggregator wide("average", "average", 22, 0, 1, 4, threads);
    EXPECT_EQ(support::aggregate(wide, honest_batch(22, 5, 41)), want22) << threads;
  }
}

TEST(HierarchicalWeightedMerge, ExactlyRepresentableInputsAreBitEqualToFlat) {
  // Child-constant rows with exact values make every intermediate exact,
  // so the weighted merge must equal the flat average bit for bit — and
  // differ from the equal-weight mean of child means in the first decimal.
  GradientBatch batch(5, 3);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < 2; ++i) batch.row(i)[c] = 1.0;  // child 0: rows 0-1
    for (size_t i = 2; i < 5; ++i) batch.row(i)[c] = 0.0;  // child 1: rows 2-4
  }
  const HierarchicalAggregator tree("average", "average", 5, 0, 1, 2);
  const Vector got = support::aggregate(tree, batch);
  const auto flat = make_aggregator("average", 5, 0);
  EXPECT_EQ(got, support::aggregate(*flat, batch));  // (2*1 + 3*0)/5 = 0.4
  EXPECT_EQ(got[0], 0.4);
  EXPECT_NE(got[0], 0.5);  // (1 + 0)/2, the unweighted mean of child means
}

TEST(HierarchicalWeightedMerge, EvenSplitsKeepThePlainMergePath) {
  const HierarchicalAggregator even("average", "average", 12, 0, 1, 3);
  EXPECT_FALSE(even.weighted_merge());
  const HierarchicalAggregator single("average", "average", 12, 0, 1, 1);
  EXPECT_FALSE(single.weighted_merge());
  // Robust merges are never weighted, uneven subtrees or not.
  const HierarchicalAggregator robust("median", "median", 13, 1, 1, 4);
  EXPECT_FALSE(robust.weighted_merge());
}

// ---- config / trainer plumbing ---------------------------------------------

TEST(HierarchicalConfig, ValidateAndLabelCoverTheTreeKnobs) {
  ExperimentConfig c;
  c.tree_levels = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);  // branch required
  c.tree_branch = 2;
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+tree(L2,B2)"), std::string::npos);

  c.channel = "nope";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.channel = "lossy";
  c.channel_drop = 0.1;
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+chan"), std::string::npos);
  c.wire_chunk = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.wire_chunk = 1024;
  c.channel_drop = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.channel_drop = 0.1;

  // The channel (the framed edges) requires the tree.
  c.tree_levels = 0;
  c.tree_branch = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.channel = "off";
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.label().find("+tree"), std::string::npos);

  // tree_branch without tree_levels is rejected too.
  c.tree_branch = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(HierarchicalConfig, TrainerTreeL1MatchesPinnedRunExactly) {
  // The trainer-level restatement of the L = 1 goldens: a tree with
  // (L = 1, B = 3) must reproduce the pinned run bit for bit (captured as
  // hexfloats from the former two-level sharded trainer path, S = 3),
  // and (L = 1, B = 1) must reproduce the flat run.
  BlobsConfig bc;
  bc.num_samples = 200;
  bc.num_features = 6;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  LinearModel model(6, LinearLoss::kMseOnSigmoid);

  ExperimentConfig config;
  config.num_workers = 12;
  config.num_byzantine = 2;
  config.gar = "median";
  config.steps = 25;
  config.eval_every = 25;
  config.batch_size = 10;
  config.attack_enabled = true;
  config.attack = "little";

  ExperimentConfig tree = config;
  tree.tree_levels = 1;
  tree.tree_branch = 3;
  const RunResult tree_run = Trainer(tree, model, data, data).run();
  const Vector want{-0x1.3ec12cbe2a5e2p+1, -0x1.1ebdea03a1171p-3,
                    -0x1.4747c6b4e86c4p-2, -0x1.8d6d86d9c24b7p+0,
                    -0x1.bb75d5e694cap+0, 0x1.f1251cee4bf14p-1,
                    -0x1.ee8b42eb35faap-3};
  EXPECT_EQ(tree_run.final_parameters, want);
  ASSERT_EQ(tree_run.train_loss.size(), 25u);
  EXPECT_EQ(tree_run.train_loss.back(), 0x1.c5003cc586028p-6);

  ExperimentConfig single = config;
  single.tree_levels = 1;
  single.tree_branch = 1;
  const RunResult flat_run = Trainer(config, model, data, data).run();
  const RunResult single_run = Trainer(single, model, data, data).run();
  EXPECT_EQ(single_run.final_parameters, flat_run.final_parameters);
  EXPECT_EQ(single_run.train_loss, flat_run.train_loss);
  // No channel configured: the channel counters stay all-zero.
  EXPECT_TRUE(tree_run.channel == net::ChannelStats{});

  // A lossy channel with every fault probability at zero is the ideal
  // framed link: real raw64 frames, the same pinned trajectory.
  ExperimentConfig ideal = tree;
  ideal.channel = "lossy";
  const RunResult ideal_run = Trainer(ideal, model, data, data).run();
  EXPECT_EQ(ideal_run.final_parameters, want);
  EXPECT_EQ(ideal_run.train_loss, tree_run.train_loss);
  EXPECT_GT(ideal_run.channel.frames_sent, 0u);
  EXPECT_EQ(ideal_run.channel.frames_delivered, ideal_run.channel.frames_sent);
}

// ---- lossy channel: reproducibility and the substitution budget ------------

TEST(HierarchicalChannel, LossyRunIsBitReproducibleWithStatsInRunResult) {
  BlobsConfig bc;
  bc.num_samples = 200;
  bc.num_features = 6;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  LinearModel model(6, LinearLoss::kMseOnSigmoid);

  ExperimentConfig config;
  config.num_workers = 12;
  config.num_byzantine = 2;
  config.gar = "median";
  config.steps = 25;
  config.eval_every = 25;
  config.batch_size = 10;
  config.attack_enabled = true;
  config.attack = "little";
  config.tree_levels = 1;
  config.tree_branch = 3;
  config.wire_chunk = 4;  // dim 7 → two chunks per edge
  config.channel = "lossy";
  config.channel_drop = 0.2;
  config.channel_corrupt = 0.1;
  config.channel_reorder = 0.3;
  config.channel_retransmit = 8;  // ample for drop = 0.2 → no substitutions

  const RunResult a = Trainer(config, model, data, data).run();
  const RunResult b = Trainer(config, model, data, data).run();

  // Bit-reproducible: trajectory AND the channel accounting.
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_TRUE(a.channel == b.channel);

  // The faults really fired and were survived.
  EXPECT_TRUE(std::isfinite(a.final_train_loss));
  EXPECT_TRUE(vec::all_finite(a.final_parameters));
  EXPECT_GT(a.channel.frames_sent, 0u);
  EXPECT_GT(a.channel.frames_dropped, 0u);
  EXPECT_GT(a.channel.frames_reordered, 0u);
  EXPECT_GT(a.channel.retransmit_frames, 0u);
  EXPECT_GT(a.channel.bytes_delivered, 0u);
  EXPECT_EQ(a.channel.rows_substituted, 0u);

  // A different channel seed redraws the faults (different counters) but
  // — with every row still reassembled exactly under raw64 — leaves the
  // learning trajectory untouched.
  ExperimentConfig reseeded = config;
  reseeded.channel_seed = 99;
  const RunResult c = Trainer(reseeded, model, data, data).run();
  EXPECT_EQ(c.final_parameters, a.final_parameters);
  EXPECT_FALSE(c.channel == a.channel);
}

TEST(HierarchicalChannel, SubstitutionsWithinMergeBudgetDegradeElseThrow) {
  // n = 25, B = 5, f = 4: child_f = 1, merge_f = floor(4/2) = 2.  A
  // brutal channel (drop = 0.6, no retransmits, two chunks per row)
  // loses whole child aggregates routinely; per seed the round either
  // degrades gracefully (≤ 2 zero-substituted children) or must refuse
  // with the merge-budget error.  The sweep must see both outcomes.
  const size_t n = 25, d = 8, f = 4;
  const GradientBatch batch = honest_batch(n, d, 55);
  net::LinkConfig link;
  link.chunk_values = 4;
  link.channel = net::ChannelConfig{0.6, 0.0, 0.0, 0.0};
  link.retransmit_limit = 0;

  size_t degraded = 0, refused = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    link.channel_seed = seed;
    const HierarchicalAggregator tree("median", "median", n, f, 1, 5, 1,
                                      PruneMode::kOff, &link);
    ASSERT_EQ(tree.merge_f(), 2u);
    try {
      const Vector out = support::aggregate(tree, batch);
      ++degraded;
      EXPECT_LE(tree.channel_stats().rows_substituted, 2u) << "seed " << seed;
      EXPECT_TRUE(vec::all_finite(out));
    } catch (const std::runtime_error& e) {
      ++refused;
      EXPECT_GT(tree.channel_stats().rows_substituted, 2u) << "seed " << seed;
      EXPECT_NE(std::string(e.what()).find("merge budget"), std::string::npos);
    }
  }
  EXPECT_GT(degraded, 0u);  // some rounds stay within the budget...
  EXPECT_GT(refused, 0u);   // ...and the overloaded ones must refuse
  EXPECT_EQ(degraded + refused, 400u);
}

}  // namespace
}  // namespace dpbyz
