#include "math/rng.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "utils/errors.hpp"

namespace dpbyz {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {
/// FNV-1a over the label, then mixed; gives a stable 64-bit key per label.
uint64_t hash_label(const std::string& label) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng Rng::derive(const std::string& label) const {
  return Rng(splitmix64(seed_ ^ hash_label(label)));
}

Rng Rng::derive(uint64_t index) const {
  return Rng(splitmix64(seed_ + 0x9e3779b97f4a7c15ULL * (index + 1)));
}

size_t Rng::uniform_index(size_t n) {
  require(n > 0, "Rng::uniform_index: n must be positive");
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::laplace_from_uniform(double u, double mu, double scale) {
  require(scale > 0, "Rng::laplace: scale must be positive");
  require(u >= -0.5 && u <= 0.5, "Rng::laplace_from_uniform: u must be in [-0.5, 0.5]");
  const double sign = (u >= 0.0) ? 1.0 : -1.0;
  // Inverse CDF: X = mu - scale * sign(u) * log(1 - 2|u|).
  // std::uniform_real_distribution is INCLUSIVE at its lower bound, so
  // laplace()'s draw can return exactly -0.5, making the log argument 0
  // and the sample -inf — infinite "DP noise" that would reach the wire
  // and poison every downstream aggregate.  Clamp the argument to the
  // smallest positive normal double: the boundary draw maps to a huge
  // but finite tail value (|X - mu| ~ 708 scale), and every interior u
  // is untouched, so non-boundary draws stay bit-identical to the
  // unclamped formula.
  const double tail =
      std::max(1.0 - 2.0 * std::abs(u), std::numeric_limits<double>::min());
  return mu - scale * sign * std::log(tail);
}

double Rng::laplace(double mu, double scale) {
  return laplace_from_uniform(uniform(-0.5, 0.5), mu, scale);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Vector Rng::normal_vector(size_t d, double stddev) {
  Vector out(d);
  normal_fill(out, stddev);
  return out;
}

void Rng::normal_fill(std::span<double> out, double stddev) {
  std::normal_distribution<double> dist(0.0, stddev);
  for (double& x : out) x = dist(engine_);
}

void Rng::save(std::ostream& os) const {
  os << "rng " << seed_ << ' ' << engine_ << '\n';
}

void Rng::load(std::istream& is) {
  std::string tag;
  is >> tag >> seed_ >> engine_;
  require(!is.fail() && tag == "rng", "Rng: corrupt checkpoint state");
}

std::vector<size_t> Rng::permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::uniform_int_distribution<size_t> dist(0, i - 1);
    std::swap(idx[i - 1], idx[dist(engine_)]);
  }
  return idx;
}

}  // namespace dpbyz
