#include "math/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "math/kernels.hpp"
#include "utils/errors.hpp"

namespace dpbyz::vec {

namespace {
void require_same_dim(CView a, CView b, const char* op) {
  // Message built only on failure: this check guards every hot-path
  // vector op, and eager std::string concatenation would heap-allocate
  // on each successful call.
  if (a.size() != b.size())
    throw std::invalid_argument(std::string("vec::") + op + ": dimension mismatch");
}
}  // namespace

// The reductions and the axpy/scale pair dispatch on the process-global
// kernels::MathMode: kScalar (default) runs the single-accumulator loops
// below, bit-identical to the seed and pinned by the golden tests;
// kFast routes to the multi-accumulator kernels in math/kernels.cpp
// (ULP-bounded for the reductions, bit-identical for the elementwise
// ops — see kernels.hpp for the accuracy/determinism contract).

void fill(View a, double value) {
  for (double& x : a) x = value;
}

void copy(CView src, View dst) {
  require_same_dim(src, dst, "copy");
  std::copy(src.begin(), src.end(), dst.begin());
}

void add_inplace(View a, CView b) {
  require_same_dim(a, b, "add_inplace");
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void sub_inplace(View a, CView b) {
  require_same_dim(a, b, "sub_inplace");
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
}

void scale_inplace(View a, double s) {
  if (kernels::fast_enabled()) return kernels::scale_fast(a.data(), s, a.size());
  for (double& x : a) x *= s;
}

void axpy_inplace(View a, double s, CView b) {
  require_same_dim(a, b, "axpy_inplace");
  if (kernels::fast_enabled()) return kernels::axpy_fast(a.data(), s, b.data(), a.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double dot(CView a, CView b) {
  require_same_dim(a, b, "dot");
  if (kernels::fast_enabled()) return kernels::dot_fast(a.data(), b.data(), a.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_sq(CView a) {
  if (kernels::fast_enabled()) return kernels::norm_sq_fast(a.data(), a.size());
  double acc = 0.0;
  for (double x : a) acc += x * x;
  return acc;
}

double norm(CView a) { return std::sqrt(norm_sq(a)); }

double norm_l1(CView a) {
  double acc = 0.0;
  for (double x : a) acc += std::abs(x);
  return acc;
}

double norm_inf(CView a) {
  double acc = 0.0;
  for (double x : a) acc = std::max(acc, std::abs(x));
  return acc;
}

double dist_sq(CView a, CView b) {
  require_same_dim(a, b, "dist_sq");
  if (kernels::fast_enabled()) return kernels::dist_sq_fast(a.data(), b.data(), a.size());
  return kernels::dist_sq_scalar(a.data(), b.data(), a.size());
}

double dist(CView a, CView b) { return std::sqrt(dist_sq(a, b)); }

bool all_finite(CView a) {
  for (double x : a)
    if (!std::isfinite(x)) return false;
  return true;
}

bool approx_equal(CView a, CView b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > tol) return false;
  return true;
}

bool lex_less(CView a, CView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// ---- allocating Vector helpers ----

Vector zeros(size_t d) { return Vector(d, 0.0); }

Vector add(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "add");
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "sub");
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Vector mean(std::span<const Vector> vs) {
  require(!vs.empty(), "vec::mean: empty input");
  Vector out = zeros(vs[0].size());
  for (const Vector& v : vs) add_inplace(out, v);
  scale_inplace(out, 1.0 / static_cast<double>(vs.size()));
  return out;
}

Vector mean_of(std::span<const Vector> vs, std::span<const size_t> idx) {
  require(!idx.empty(), "vec::mean_of: empty selection");
  require(!vs.empty(), "vec::mean_of: empty input");
  Vector out = zeros(vs[0].size());
  for (size_t i : idx) {
    require(i < vs.size(), "vec::mean_of: index out of range");
    add_inplace(out, vs[i]);
  }
  scale_inplace(out, 1.0 / static_cast<double>(idx.size()));
  return out;
}

}  // namespace dpbyz::vec
