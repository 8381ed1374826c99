// vector_ops.hpp — dense vector arithmetic for gradients and model weights.
//
// Gradients throughout dpbyz are plain `std::vector<double>` ("Vector").
// The model sizes in this reproduction (d = 69 up to a few 1e4 in the
// dimension sweeps) do not justify an expression-template library; simple
// loops keep the code auditable against the paper's equations.
//
// The reductions (dot, norm_sq, dist_sq) and the axpy/scale pair dispatch
// at runtime on the process-global math mode (math/kernels.hpp): the
// default scalar mode is the seed's single-accumulator loop, bit-identical
// and golden-pinned; the opt-in fast mode (ExperimentConfig::fast_math)
// routes to multi-accumulator / AVX2 kernels with a documented ULP bound.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dpbyz {

using Vector = std::vector<double>;

/// Mutable / read-only views over contiguous coordinate storage (a Vector,
/// a GradientBatch row, or any double buffer).  The in-place ops and the
/// reductions below take views only: a Vector converts to either, so one
/// allocation-free entry point serves every caller.
using View = std::span<double>;
using CView = std::span<const double>;

namespace vec {

/// A zero vector of dimension `d`.
Vector zeros(size_t d);

/// Element-wise a + b.  Dimensions must match.
Vector add(const Vector& a, const Vector& b);

/// Element-wise a - b.  Dimensions must match.
Vector sub(const Vector& a, const Vector& b);

/// Scalar multiple s * a.
Vector scale(const Vector& a, double s);

/// Arithmetic mean of a non-empty set of equal-dimension vectors.
Vector mean(std::span<const Vector> vs);

/// Mean of the subset of `vs` selected by `idx` (indices into vs).
Vector mean_of(std::span<const Vector> vs, std::span<const size_t> idx);

// ---- view ops (allocation-free; write into caller storage) ----

/// Set every component of `a` to `value`.
void fill(View a, double value);

/// Copy `src` into `dst`.  Dimensions must match.
void copy(CView src, View dst);

/// In-place a += b / a -= b / a *= s / a += s * b on views.
void add_inplace(View a, CView b);
void sub_inplace(View a, CView b);
void scale_inplace(View a, double s);
void axpy_inplace(View a, double s, CView b);

/// Inner product, squared L2 / L2 / L1 / L-infinity norms.
double dot(CView a, CView b);
double norm_sq(CView a);
double norm(CView a);
double norm_l1(CView a);
double norm_inf(CView a);

/// Squared L2 distance ||a - b||^2 without a temporary, and its root.
double dist_sq(CView a, CView b);
double dist(CView a, CView b);

/// True iff every component is finite (no NaN/Inf).
bool all_finite(CView a);

/// True iff the dimensions match and ||a - b||_inf <= tol.
bool approx_equal(CView a, CView b, double tol = 1e-12);

/// Lexicographic strict ordering of two views — the canonical GAR
/// tie-break, matching std::vector<double>'s operator< on the same values.
bool lex_less(CView a, CView b);

}  // namespace vec
}  // namespace dpbyz
