#include "host_speed.hpp"

#include <cmath>
#include <cstdint>
#include <thread>

#include "trace.hpp"

namespace roundbench {

namespace {
// 32768 doubles = 256 KiB: resident in L2, like a round's working set.
constexpr size_t kElements = size_t{1} << 15;
constexpr int kPasses = 150;
// Median slice time on the calibration host (4-core Xeon KVM guest, gcc
// Release build); fixed, so speeds are comparable across runs and builds.
constexpr double kNominalSliceSeconds = 0.045;

/// One slice of reference work; returns its speed relative to nominal.
double slice(const std::vector<double>& data, double& sink) {
  const int64_t start = now_ns();
  uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int pass = 0; pass < kPasses; ++pass)
    for (const double a : data) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
      acc += a * std::exp(-u * a);
    }
  sink += acc;  // keeps the work observable
  return kNominalSliceSeconds / (static_cast<double>(now_ns() - start) * 1e-9);
}
}  // namespace

HostSpeed::HostSpeed(size_t threads) : threads_(threads), data_(kElements) {
  for (size_t i = 0; i < kElements; ++i)
    data_[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i));
}

double HostSpeed::sample() {
  std::vector<double> speed(threads_, 0.0), sink(threads_, 0.0);
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads_; ++t)
    helpers.emplace_back([&, t] { speed[t] = slice(data_, sink[t]); });
  speed[0] = slice(data_, sink[0]);
  for (std::thread& h : helpers) h.join();
  double sum = 0.0;
  for (size_t t = 0; t < threads_; ++t) {
    sum += speed[t];
    sink_ += sink[t];
  }
  return sum / static_cast<double>(threads_);
}

}  // namespace roundbench
