#include "math/kernels.hpp"

#include <atomic>
#include <stdexcept>

#include "math/kernels_isa.hpp"

namespace dpbyz::kernels {

namespace {
// Count of live MathModeScope(kFast) instances; the fast path is active
// while it is positive.  Counting makes overlapping scope lifetimes
// (run_seeds_parallel) safe — see the thread model in kernels.hpp.
std::atomic<int> g_fast_scopes{0};

// Selected fast backend, resolved lazily on first use (-1 = unresolved).
// Lazy (rather than a static initializer) so set_fast_backend calls from
// early test setup never race constructor ordering across TUs.
std::atomic<int> g_backend{-1};

int default_backend() {
  return detail::cpu_has_avx2() ? static_cast<int>(FastBackend::kAvx2)
                                : static_cast<int>(FastBackend::kUnrolled8);
}
}  // namespace

MathMode mode() {
  return g_fast_scopes.load(std::memory_order_relaxed) > 0 ? MathMode::kFast
                                                           : MathMode::kScalar;
}

bool fast_enabled() { return g_fast_scopes.load(std::memory_order_relaxed) > 0; }

MathModeScope::MathModeScope(MathMode m) : counted_(m == MathMode::kFast) {
  if (counted_) g_fast_scopes.fetch_add(1, std::memory_order_relaxed);
}

MathModeScope::~MathModeScope() {
  if (counted_) g_fast_scopes.fetch_sub(1, std::memory_order_relaxed);
}

FastBackend fast_backend_kind() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    // Benign race: every thread computes the same cpuid-derived default.
    b = default_backend();
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<FastBackend>(b);
}

const char* fast_backend() {
  return fast_backend_kind() == FastBackend::kAvx2 ? "avx2" : "unrolled8";
}

bool backend_supported(FastBackend b) {
  return b == FastBackend::kAvx2 ? detail::cpu_has_avx2() : true;
}

void set_fast_backend(FastBackend b) {
  if (!backend_supported(b))
    throw std::invalid_argument(
        "kernels::set_fast_backend: backend not supported by this CPU");
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

// Portable unrolled8 backend.  All backends split the index stream into 8
// lanes (term i feeds accumulator i mod 8 within each 8-wide block) and
// combine the partials as ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)), then add
// the scalar tail.  Keeping the combine order identical across backends
// makes the AVX2 and portable paths agree bit-for-bit — and makes every
// run deterministic, since nothing here depends on data values,
// alignment, or threads.  No FMA in this backend: each product/difference
// is the same correctly-rounded double the scalar loop computes, so only
// summation order is reassociated (the documented 2*d*eps*sum|term| bound
// in kernels.hpp).

namespace {

double u8_dist_sq(const double* a, const double* b, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    const double d4 = a[i + 4] - b[i + 4], d5 = a[i + 5] - b[i + 5];
    const double d6 = a[i + 6] - b[i + 6], d7 = a[i + 7] - b[i + 7];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
    s4 += d4 * d4;
    s5 += d5 * d5;
    s6 += d6 * d6;
    s7 += d7 * d7;
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    out += diff * diff;
  }
  return out;
}

double u8_dot(const double* a, const double* b, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

double u8_norm_sq(const double* a, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * a[i];
    s1 += a[i + 1] * a[i + 1];
    s2 += a[i + 2] * a[i + 2];
    s3 += a[i + 3] * a[i + 3];
    s4 += a[i + 4] * a[i + 4];
    s5 += a[i + 5] * a[i + 5];
    s6 += a[i + 6] * a[i + 6];
    s7 += a[i + 7] * a[i + 7];
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) out += a[i] * a[i];
  return out;
}

void u8_axpy(double* a, double s, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a[i] += s * b[i];
    a[i + 1] += s * b[i + 1];
    a[i + 2] += s * b[i + 2];
    a[i + 3] += s * b[i + 3];
    a[i + 4] += s * b[i + 4];
    a[i + 5] += s * b[i + 5];
    a[i + 6] += s * b[i + 6];
    a[i + 7] += s * b[i + 7];
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void u8_scale(double* a, double s, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a[i] *= s;
    a[i + 1] *= s;
    a[i + 2] *= s;
    a[i + 3] *= s;
    a[i + 4] *= s;
    a[i + 5] *= s;
    a[i + 6] *= s;
    a[i + 7] *= s;
  }
  for (; i < n; ++i) a[i] *= s;
}

// The pairwise block: lane (l, s) is the seed's loop over (a[l], b[s]).
// Each coordinate of the four destination rows is read once per block
// and each source coordinate once per destination quadruple; the 4 * S
// accumulators are independent chains, which is where the speed comes
// from.  The compiler may vectorize across lanes but, without
// -ffast-math, never across k, so every sum keeps its order.
template <size_t S>
void u8_dist_sq_block(const double* const* a, const double* const* b, size_t n,
                      double* out) {
  double acc[kBlockRows * S] = {};
  const double* a0 = a[0];
  const double* a1 = a[1];
  const double* a2 = a[2];
  const double* a3 = a[3];
  for (size_t k = 0; k < n; ++k) {
    const double x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
    for (size_t s = 0; s < S; ++s) {
      const double y = b[s][k];
      const double e0 = x0 - y, e1 = x1 - y, e2 = x2 - y, e3 = x3 - y;
      double* lane = acc + kBlockRows * s;
      lane[0] += e0 * e0;
      lane[1] += e1 * e1;
      lane[2] += e2 * e2;
      lane[3] += e3 * e3;
    }
  }
  for (size_t i = 0; i < kBlockRows * S; ++i) out[i] = acc[i];
}

}  // namespace

double dist_sq_fast(const double* a, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_dist_sq(a, b, n);
    default:
      return u8_dist_sq(a, b, n);
  }
}

double dot_fast(const double* a, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_dot(a, b, n);
    default:
      return u8_dot(a, b, n);
  }
}

double norm_sq_fast(const double* a, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_norm_sq(a, n);
    default:
      return u8_norm_sq(a, n);
  }
}

void axpy_fast(double* a, double s, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_axpy(a, s, b, n);
    default:
      return u8_axpy(a, s, b, n);
  }
}

void scale_fast(double* a, double s, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_scale(a, s, n);
    default:
      return u8_scale(a, s, n);
  }
}

double dist_sq_scalar(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

void dist_sq_block(const double* const* a, const double* const* b, size_t m, size_t n,
                   double* out) {
  static_assert(kBlockRows == 4, "the block bodies unroll four destination lanes");
  if (fast_backend_kind() == FastBackend::kAvx2)
    return detail::avx2_dist_sq_block(a, b, m, n, out);
  switch (m) {
    case 1:
      return u8_dist_sq_block<1>(a, b, n, out);
    case 2:
      return u8_dist_sq_block<2>(a, b, n, out);
    case 3:
      return u8_dist_sq_block<3>(a, b, n, out);
    default:
      return u8_dist_sq_block<4>(a, b, n, out);
  }
}

}  // namespace dpbyz::kernels
