// kernels_isa.hpp — internal declarations for the ISA-specific kernel
// backends (math/kernels_avx2.cpp).  Not part of the public kernel API:
// callers go through the dispatching entry points in math/kernels.hpp,
// which select a backend at startup from cpuid — see the dispatch model
// in kernels.hpp.
#pragma once

#include <cstddef>

namespace dpbyz::kernels::detail {

/// cpuid probe.  Always false on non-x86 targets, where the portable
/// unrolled8 backend is the only one available.
bool cpu_has_avx2();

// AVX2 backend (no FMA): same lane split and combine order as the
// portable backend, so the two agree bit-for-bit.
double avx2_dist_sq(const double* a, const double* b, size_t n);
double avx2_dot(const double* a, const double* b, size_t n);
double avx2_norm_sq(const double* a, size_t n);
void avx2_axpy(double* a, double s, const double* b, size_t n);
void avx2_scale(double* a, double s, size_t n);
// The lanes-across-pairs pairwise block (kernels::dist_sq_block): one
// in-order accumulator per (a[l], b[s]) lane, bit-identical to the
// portable block and to kernels::dist_sq_scalar.
void avx2_dist_sq_block(const double* const* a, const double* const* b, size_t m,
                        size_t n, double* out);

}  // namespace dpbyz::kernels::detail
