// mda.hpp — Minimum-Diameter Averaging (El-Mhamdi et al., 2020).
//
// MDA selects the subset S of n - f gradients with the smallest diameter
// max_{i,j in S} ||g_i - g_j|| and outputs the average of S.  Because at
// least n - f submitted gradients are honest, the chosen subset's diameter
// is no larger than the honest cluster's, which bounds how far Byzantine
// members of S can sit from the honest mean.
//
// MDA is the GAR used in all of the paper's experiments: it "has one of
// the largest VN ratio upper bounds among known (alpha, f)-Byzantine
// resilient GARs" (§5.1), k_F = (n - f) / (sqrt(8) f).
//
// Complexity: a kept set has diameter <= D exactly when the f excluded
// rows touch every pair farther apart than D, so the search looks for a
// size-f vertex cover of the far-pair graph, not through the C(n, f)
// subsets.  Stage 1 takes as incumbent the row whose (n-f-1)-th nearest
// neighbour is closest, kept with those neighbours (diameter ub), and
// applies Buss's kernel rule to the pairs farther apart than ub: a row
// with more such pairs than the exclusion budget left must go.  When that
// forces f rows out, their complement is the only set within ub and the
// call returns in O(n²).  Otherwise stage 2 sorts the at most f·n pairs
// a node can reach, farthest first, and walks the bounded search tree
// below the forced rows: branch on the farthest uncovered pair, exclude
// one end or the other, depth <= f and at most 2^(f+1) - 1 nodes.  Construction refuses f > kMaxF (about 2e6
// nodes), pointing users to Multi-Krum.  Both stages read the same
// square-rooted doubles the seed's subset enumeration compared and do no
// arithmetic on them, so the selected subset — the lexicographically
// first of minimum diameter — and its mean are bit-identical to it.
//
// The hot path fills the workspace's shared squared-distance matrix and
// square-roots it in place (comparing squared values instead would
// diverge on the rare ties that sqrt rounding creates).
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

class Mda final : public Aggregator {
 public:
  /// Requires 1 <= f <= kMaxF and n >= 2f + 1.
  Mda(size_t n, size_t f, PruneMode prune = PruneMode::kOff);

  std::string name() const override { return "mda"; }
  double vn_threshold() const override;

  /// Subset selection: fills ws.dist_sq and leaves the winning subset of
  /// minimal diameter in ws.selected (ascending index order).  Does not
  /// validate the batch (aggregate() does).
  void select_subset_view(const GradientBatch& batch, AggregatorWorkspace& ws) const;

  /// Largest f the constructor accepts: the search tree has at most
  /// 2^(f+1) - 1 nodes.
  static constexpr size_t kMaxF = 20;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;

 private:
  PruneMode prune_;
};

}  // namespace dpbyz
