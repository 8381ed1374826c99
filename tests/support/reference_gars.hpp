// reference_gars.hpp — the seed (pre-GradientBatch) GAR implementations,
// preserved verbatim in structure and arithmetic.
//
// Two consumers:
//   * the golden tests assert that every view-based kernel in
//     aggregation/*.cpp produces BIT-IDENTICAL output to these reference
//     functions on seeded random and adversarial inputs;
//   * bench_gar_scaling times them as the "seed" baseline the contiguous
//     batch path is measured against (per-call owning-vector copies,
//     per-round distance recomputation and all).
//
// Do not "optimise" these: their allocation pattern and operation order
// ARE the specification.  New GAR work happens on the batch path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/vector_ops.hpp"

namespace dpbyz::reference {

/// Seed Krum scoring for an arbitrary pool: each gradient's sum of squared
/// distances to its `count - f - 2` nearest neighbours, the neighbourhood
/// clamped to [1, count-1] (Bulyan's shrinking pools).  Allocates and
/// recomputes its own distance matrix; krum_scores_from_matrix must match
/// it bit for bit.
std::vector<double> krum_scores(std::span<const Vector> gradients, size_t f);

/// Index of the minimum-score gradient, exact score ties broken by
/// lexicographic comparison of the gradient vectors (the tie-break
/// krum_argmin_view applies to batch rows).
size_t krum_argmin(std::span<const Vector> gradients, const std::vector<double>& scores);

Vector average(std::span<const Vector> gradients);
Vector krum(std::span<const Vector> gradients, size_t f);
Vector multi_krum(std::span<const Vector> gradients, size_t n, size_t f);
Vector mda(std::span<const Vector> gradients, size_t f);
Vector coordinate_median(std::span<const Vector> gradients);
Vector trimmed_mean(std::span<const Vector> gradients, size_t f);
Vector bulyan(std::span<const Vector> gradients, size_t n, size_t f);
Vector meamed(std::span<const Vector> gradients, size_t f);
Vector phocas(std::span<const Vector> gradients, size_t f);
Vector geometric_median(std::span<const Vector> gradients, size_t max_iters = 100,
                        double tolerance = 1e-10);
Vector cge(std::span<const Vector> gradients, size_t n, size_t f);

/// MDA's subset selection (branch-and-bound over true distances), for
/// tests that check the selected indices rather than the mean.
std::vector<size_t> mda_select(std::span<const Vector> gradients, size_t f);

/// Bulyan's iterated-Krum selection over copied, shrinking pools.
std::vector<size_t> bulyan_select(std::span<const Vector> gradients, size_t n, size_t f);

}  // namespace dpbyz::reference
