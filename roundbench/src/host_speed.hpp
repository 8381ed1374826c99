// host_speed.hpp — how fast the host runs right now, against a fixed unit
// of reference work.
//
// On a shared machine the same binary's speed drifts by ±25% over minutes
// (other tenants, not this process), which no run length averages out.
// The timed metrics are therefore paired with the host's speed: a short,
// fixed slice of reference work runs between repetitions, and each
// repetition's wall and CPU times are rescaled by the speed measured next
// to it.  The reference is the benchmark's own code, never the library's,
// so a library change cannot move it.  Its mix (exp, multiply-add over an
// L2-sized array, integer hashing) follows the round's own profile; its
// per-repetition pairing cut the spread of paper_phishing's rate across
// 10-second windows from 16% to 3% on a 4-core KVM guest.  Work spread
// over several threads runs on several cores, so its speed is sampled on
// as many threads.
#pragma once

#include <cstddef>
#include <vector>

namespace roundbench {

class HostSpeed {
 public:
  /// `threads`: how many threads the timed work keeps busy; a sample runs
  /// that many slices at once and averages their speeds.
  explicit HostSpeed(size_t threads);
  /// Run one reference slice per thread (about 45 ms at nominal speed)
  /// and return the host's speed relative to nominal: 1 at the
  /// calibration host's median speed, 0.8 when the slice took 25% longer.
  /// A measured time times this is the time the nominal host would have
  /// taken; a measured rate divided by it is the nominal host's rate.
  double sample();

 private:
  size_t threads_;
  std::vector<double> data_;
  double sink_ = 0.0;
};

}  // namespace roundbench
