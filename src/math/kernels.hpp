// kernels.hpp — the hot reductions behind the GARs: one bit-identical
// pairwise-distance kernel and the opt-in fast-math reductions.
//
// The GAR hot path is dominated by a handful of span reductions:
// pairwise ||a - b||² (Krum scoring, MDA diameter, Bulyan rescoring),
// ||a||² (CGE), <a, b> and the elementwise axpy/scale pair (Weiszfeld,
// clipping, momentum).  The default implementations are
// single-accumulator left-to-right loops: they are bit-identical to the
// seed (the golden tests pin their exact doubles), but ONE such sum is a
// single serial dependency chain, capped at one add per FP-add latency —
// a fraction of what the machine can retire.  There are two ways out:
// keep each sum's order and run many sums side by side, or reassociate
// each sum.  This layer does the first for the pairwise matrix and
// offers the second, opt-in, for the single-vector reductions.
//
// Pairwise distances: lanes across pairs.  dist_sq_block computes a
// block of up to 4 × 4 squared distances, one (destination row, source
// row) pair per SIMD lane.  Each lane accumulates (a[k] - b[k])² for
// k = 0..n-1 in order, in one accumulator, with a separate subtract,
// multiply and add — exactly the seed's loop (dist_sq_scalar), so every
// entry is bit-identical to it; the speed comes from the 4 × 4
// independent chains and from reading each coordinate once per block,
// not from reordering any sum.  pairwise_dist_sq (gradient_batch.hpp)
// tiles the matrix into these blocks.  There is one such kernel and it
// serves both math modes: fast mode does not change a pairwise entry.
//
// The no-FMA rule.  A fused multiply-add rounds (a - b)² + acc once
// instead of twice, so it changes the double.  No kernel here may
// contract: the AVX2 bodies are compiled under target("avx2") only,
// never "fma", and the build passes -ffp-contract=off so that no
// -march choice lets the compiler fuse the plain-C++ loops (or the
// intrinsics' mul + add) behind our back.
//
// Fast mode (opt-in):
//
//   * `*_fast` kernels break each single-vector reduction (dist_sq, dot,
//     norm_sq) into kLanes = 8 independent accumulators plus a scalar
//     tail, then combine the partials pairwise.  The elementwise kernels
//     (axpy, scale) are restructured the same way but perform the exact
//     same per-element arithmetic, so they remain bit-identical to the
//     scalar loops.
//   * a process-global MathMode flag selects which implementation the
//     vec:: entry points dispatch to (Weiszfeld, CGE, clipping,
//     momentum; not the pairwise matrix).  The mode defaults to kScalar,
//     so nothing changes unless a caller opts in —
//     ExperimentConfig::fast_math is the user-facing knob (the trainer
//     installs a MathModeScope for the duration of the run).
//
// Dispatch model (runtime ISA selection): one binary carries TWO
// backends, for the fast reductions and for the pairwise block alike —
//
//   kUnrolled8  portable plain C++ (always present): eight-accumulator
//               reductions, and the 4 × 4 pairwise block as 16 scalar
//               accumulators;
//   kAvx2       AVX2 vector loops, same lane split and combine order /
//               same per-lane sums, no FMA — bit-identical to kUnrolled8
//               on every input.
//
// At startup the backend is chosen by cpuid: kAvx2 when the host supports
// it, kUnrolled8 otherwise.  The ISA-specific bodies live in
// kernels_avx2.cpp behind per-function target attributes and are only
// reachable after cpuid approves them, so no TU needs a global ISA flag.
// set_fast_backend overrides the choice (tests use it to run the portable
// backend on an AVX2 host).
//
// Fast-mode accuracy contract (the "ULP bound" the fast golden tests
// enforce): every per-element product/difference is computed exactly as
// in the scalar loop — only the *summation order* changes.  For a reduction over
// d terms the classical reassociation bound gives
//
//     |fast - scalar| <= 2 * d * eps * sum_i |term_i|,   eps = 2^-53,
//
// where term_i is (a_i - b_i)² / a_i² / a_i*b_i respectively.  For the
// nonnegative-term reductions (dist_sq, norm_sq) sum|term| equals the
// result itself, so the bound is a plain relative error of 2*d*eps.
// tests/test_math_kernels.cpp checks the bound on random, adversarial
// (cancellation-heavy) and denormal-heavy inputs.
//
// Determinism contract: for a fixed (binary, backend) and a fixed input,
// the fast kernels are pure functions — the lane split depends only on d,
// never on data, timing or thread count.  kUnrolled8 and kAvx2 agree
// bit-for-bit, so every host yields one fast-mode answer whichever
// backend it selects.  The default scalar MathMode still promises
// bit-identity to the seed and stays the default.  pairwise_dist_sq
// computes each pair on exactly one thread with the bit-identical block
// kernel, so its matrix is the seed's in either mode, at every `threads`
// width and on every backend.
//
// Thread model: the mode is one process-global atomic *count* of live
// fast scopes (relaxed loads on the hot path) — the fast path is active
// while at least one MathModeScope(kFast) is alive, and kScalar scopes
// are no-ops.  Counting (rather than save/restore of the previous mode)
// makes OVERLAPPING scope lifetimes safe: run_seeds_parallel fans one
// fast_math config out across pool workers whose scopes construct and
// destruct in arbitrary interleavings, and with save/restore the first
// run to finish would have yanked the mode out from under the others
// (and the last to finish would have "restored" the mode a sibling set,
// leaving the process stuck in fast mode).  With the count, the mode is
// fast for exactly the union of the fast scopes' lifetimes and reverts
// to the scalar default when the last one dies.  The one unsupported
// pattern is *mixed-mode* concurrency (a fast_math run overlapping a
// scalar run): the scalar run would observe the fast kernels while the
// other run lives.  Nothing in the repo does this — concurrent runs
// share one config — and the config knob documents the restriction.
// set_fast_backend follows the same discipline: call it at startup or
// between runs, not while kernels may be executing on other threads.
#pragma once

#include <cstddef>

namespace dpbyz::kernels {

/// Which implementation the vec:: reductions dispatch to.
enum class MathMode {
  kScalar,  ///< seed-bit-identical single-accumulator loops (default)
  kFast,    ///< multi-accumulator kernels (ULP-bounded, see above)
};

/// Current process-global mode: kFast while any MathModeScope(kFast) is
/// alive, kScalar otherwise (relaxed atomic load; safe from any thread).
MathMode mode();

/// True iff the fast path is currently selected.
bool fast_enabled();

/// The implementation behind the fast reductions and the pairwise block
/// (see the dispatch model).
enum class FastBackend {
  kUnrolled8,  ///< portable plain-C++ loops
  kAvx2,       ///< AVX2, no FMA — bit-identical to kUnrolled8
};

/// Currently selected fast backend.  Resolved on first use: kAvx2 when
/// cpuid reports AVX2 support, kUnrolled8 otherwise.
FastBackend fast_backend_kind();

/// Name of the current fast backend: "unrolled8" / "avx2".
/// Informational (bench/JSON provenance).
const char* fast_backend();

/// True iff this host can execute backend `b` (cpuid probe; kUnrolled8 is
/// always supported).
bool backend_supported(FastBackend b);

/// Select the fast backend explicitly (tests).
/// Throws std::invalid_argument when the host lacks the required ISA.
/// Not thread-safe against concurrently executing kernels — call between
/// runs, like MathModeScope setup.
void set_fast_backend(FastBackend b);

/// RAII fast-mode participation: a kFast scope holds the process in fast
/// mode for its lifetime (counted, so overlapping scopes compose — see
/// the thread model above); a kScalar scope is a no-op, since scalar is
/// the default the process reverts to.  The trainer wraps each run in
/// one of these, driven by ExperimentConfig::fast_math.
class MathModeScope {
 public:
  explicit MathModeScope(MathMode m);
  ~MathModeScope();
  MathModeScope(const MathModeScope&) = delete;
  MathModeScope& operator=(const MathModeScope&) = delete;

 private:
  bool counted_;  // true iff this scope incremented the fast count
};

// ---- raw fast kernels ------------------------------------------------------
// Always available regardless of the current mode (tests compare them
// with the scalar loops).  Null-safe for n == 0.  Each call
// routes to the selected backend (fast_backend_kind()).

/// sum_i (a_i - b_i)^2 with 8 partial accumulators.
double dist_sq_fast(const double* a, const double* b, size_t n);

/// sum_i a_i * b_i with 8 partial accumulators.
double dot_fast(const double* a, const double* b, size_t n);

/// sum_i a_i^2 with 8 partial accumulators.
double norm_sq_fast(const double* a, size_t n);

/// a_i += s * b_i.  Elementwise: bit-identical to the scalar loop.
void axpy_fast(double* a, double s, const double* b, size_t n);

/// a_i *= s.  Elementwise: bit-identical to the scalar loop.
void scale_fast(double* a, double s, size_t n);

// ---- the pairwise block (mode-independent) ---------------------------------

/// sum_i (a_i - b_i)^2 as the seed's loop: one accumulator, ascending i.
/// Independent of the math mode — the single-pair reference every
/// pairwise entry is bit-identical to (vec::dist_sq's scalar path uses
/// it).
double dist_sq_scalar(const double* a, const double* b, size_t n);

/// Destination rows per pairwise block: one SIMD lane each.
inline constexpr size_t kBlockRows = 4;

/// Lanes across pairs: for every l < kBlockRows and s < m,
///   out[kBlockRows * s + l] = dist_sq_scalar(a[l], b[s], n),
/// bit for bit (each lane runs one in-order accumulator, no FMA).
/// 1 <= m <= kBlockRows source rows; a[] always holds kBlockRows
/// pointers (callers repeat a row to pad, and ignore those lanes).
/// Routes to the selected backend (fast_backend_kind()).
void dist_sq_block(const double* const* a, const double* const* b, size_t m, size_t n,
                   double* out);

}  // namespace dpbyz::kernels
