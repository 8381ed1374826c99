// krum.hpp — Krum and Multi-Krum (Blanchard et al., NeurIPS 2017).
//
// Krum scores each gradient by the sum of squared L2 distances to its
// n - f - 2 nearest neighbours (excluding itself) and outputs the gradient
// with the lowest score.  Intuition: a Byzantine gradient far from the
// honest cluster accumulates large distances and cannot win; a Byzantine
// gradient close enough to win is by construction harmless.
//
// Multi-Krum averages the m lowest-scoring gradients (m = n - f here),
// trading some robustness slack for lower variance.
//
// Admissibility: n >= 2f + 3 (the neighbourhood size n - f - 2 must be
// at least 1 and the majority argument needs 2f + 2 < n).
//
// The hot path scores gradients from the workspace's precomputed pairwise
// squared-distance matrix (shared with MDA and Bulyan); the seed scoring
// over owning vectors, which recomputes the distances, is kept as the
// golden tests' oracle in tests/support/reference_gars.hpp.
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

/// Krum scores over a candidate pool: `active` lists the batch rows that
/// form the pool (in pool order) and `dist_sq` is the full n*n
/// squared-distance matrix of the batch (n = stride).  Writes each pool
/// member's sum of squared distances to its `count - f - 2` nearest
/// neighbours into out_scores[0 .. active.size()), with the neighbourhood
/// clamped to [1, count-1] so shrunken pools (Bulyan's iterated
/// selection) remain well-defined; scratch_row holds the neighbour sums.
/// Bit-identical to the seed's scoring of the corresponding vectors
/// (tests/support/reference_gars.hpp).
void krum_scores_from_matrix(std::span<const double> dist_sq, size_t stride,
                             std::span<const size_t> active, size_t f,
                             std::span<double> out_scores, std::vector<double>& scratch_row);

/// Position (within `active`) of the minimum-score pool member, breaking
/// exact score ties by lexicographic comparison of the batch rows.  Ties
/// are not an edge case: with a 1-element neighbourhood, mutual nearest
/// neighbours receive *identical* scores, and without a canonical
/// tie-break the selection (hence Bulyan) would depend on input order,
/// violating the permutation invariance a GAR must have.
size_t krum_argmin_view(const GradientBatch& batch, std::span<const size_t> active,
                        std::span<const double> scores);

class Krum : public Aggregator {
 public:
  Krum(size_t n, size_t f, PruneMode prune = PruneMode::kOff);

  std::string name() const override { return "krum"; }
  double vn_threshold() const override;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;

  /// Fill ws.dist_sq / ws.active / ws.scores for the full batch and
  /// return the number of gradients (shared by Krum and Multi-Krum).
  /// Under prune=approx the matrix entries are JL sketch distances
  /// instead of exact ones; everything downstream is unchanged.
  size_t score_batch(const GradientBatch& batch, AggregatorWorkspace& ws) const;

 private:
  PruneMode prune_;
};

/// Multi-Krum: average of the m = n - f smallest-score gradients.
class MultiKrum final : public Krum {
 public:
  MultiKrum(size_t n, size_t f, PruneMode prune = PruneMode::kOff);

  std::string name() const override { return "multi-krum"; }

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
};

}  // namespace dpbyz
