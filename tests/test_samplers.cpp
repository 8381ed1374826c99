// Unit tests for data/samplers.
#include "data/samplers.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace dpbyz {
namespace {

TEST(IidSampler, ProducesRequestedSizeInRange) {
  IidSampler s(10);
  Rng rng(1);
  std::vector<size_t> batch;
  s.next_into(25, rng, batch);
  EXPECT_EQ(batch.size(), 25u);
  for (size_t i : batch) EXPECT_LT(i, 10u);
}

TEST(IidSampler, AllowsBatchLargerThanPopulation) {
  IidSampler s(3);
  Rng rng(1);
  std::vector<size_t> batch;
  s.next_into(10, rng, batch);
  EXPECT_EQ(batch.size(), 10u);  // with replacement
}

TEST(IidSampler, CoversPopulationEventually) {
  IidSampler s(5);
  Rng rng(2);
  std::set<size_t> seen;
  std::vector<size_t> batch;
  for (int i = 0; i < 50; ++i) {
    s.next_into(5, rng, batch);
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(IidSampler, DeterministicGivenSeed) {
  IidSampler s1(100), s2(100);
  Rng a(7), b(7);
  std::vector<size_t> from_a, from_b;
  s1.next_into(20, a, from_a);
  s2.next_into(20, b, from_b);
  EXPECT_EQ(from_a, from_b);
}

TEST(IidSampler, RejectsZeroBatchOrPopulation) {
  EXPECT_THROW(IidSampler(0), std::invalid_argument);
  IidSampler s(5);
  Rng rng(1);
  std::vector<size_t> batch;
  EXPECT_THROW(s.next_into(0, rng, batch), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
