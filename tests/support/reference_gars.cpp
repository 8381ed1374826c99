// Seed GAR implementations, kept as the bit-exact specification of the
// view-based kernels.  See reference_gars.hpp for why these must not be
// modernised.
#include "reference_gars.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "aggregation/trimmed_mean.hpp"
#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz::reference {

namespace {

/// Nominal neighbourhood count - f - 2, clamped so Bulyan's shrinking
/// pools (down to 2f + 1 elements) still score meaningfully.
size_t neighbourhood(size_t count, size_t f) {
  const size_t nominal = count > f + 2 ? count - f - 2 : 1;
  return std::min(nominal, count - 1);
}

/// Sum of the `neighbours` smallest entries of row[0..len) (row is
/// clobbered).  A copy of the library's helper in aggregation/krum.cpp:
/// the oracle and the matrix path must sum in the exact same order.
double nearest_neighbour_sum(std::vector<double>& row, size_t len, size_t neighbours) {
  std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(neighbours - 1),
                   row.begin() + static_cast<std::ptrdiff_t>(len));
  return std::accumulate(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(neighbours),
                         0.0);
}

}  // namespace

std::vector<double> krum_scores(std::span<const Vector> gradients, size_t f) {
  const size_t count = gradients.size();
  require(count >= 2, "krum_scores: need at least two gradients");
  const size_t neighbours = neighbourhood(count, f);

  // Pairwise squared distances: one flat count*count buffer, each
  // symmetric entry computed once.
  std::vector<double> dist_sq(count * count, 0.0);
  for (size_t i = 0; i < count; ++i)
    for (size_t j = i + 1; j < count; ++j)
      dist_sq[i * count + j] = dist_sq[j * count + i] =
          vec::dist_sq(gradients[i], gradients[j]);

  std::vector<double> out(count);
  std::vector<double> row(count - 1);
  for (size_t i = 0; i < count; ++i) {
    size_t k = 0;
    for (size_t j = 0; j < count; ++j)
      if (j != i) row[k++] = dist_sq[i * count + j];
    out[i] = nearest_neighbour_sum(row, k, neighbours);
  }
  return out;
}

size_t krum_argmin(std::span<const Vector> gradients, const std::vector<double>& scores) {
  require(gradients.size() == scores.size(), "krum_argmin: size mismatch");
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] < scores[best] ||
        (scores[i] == scores[best] && gradients[i] < gradients[best])) {
      best = i;
    }
  }
  return best;
}

Vector average(std::span<const Vector> gradients) { return vec::mean(gradients); }

Vector krum(std::span<const Vector> gradients, size_t f) {
  const auto scores = krum_scores(gradients, f);
  return gradients[krum_argmin(gradients, scores)];
}

Vector multi_krum(std::span<const Vector> gradients, size_t n, size_t f) {
  const auto s = krum_scores(gradients, f);
  const size_t m = n - f;
  std::vector<size_t> order(s.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(m), order.end(),
                    [&s, &gradients](size_t a, size_t b) {
                      return s[a] < s[b] || (s[a] == s[b] && gradients[a] < gradients[b]);
                    });
  order.resize(m);
  return vec::mean_of(gradients, order);
}

namespace {

/// Seed MDA subset search: full sqrt-distance matrix as nested vectors,
/// depth-first enumeration with branch-and-bound on the running diameter.
struct ReferenceSubsetSearch {
  ReferenceSubsetSearch(const std::vector<std::vector<double>>& d, size_t n, size_t m)
      : dist(d), count(n), target(m) {}

  const std::vector<std::vector<double>>& dist;
  size_t count;
  size_t target;
  double best_diameter = std::numeric_limits<double>::infinity();
  std::vector<size_t> best;
  std::vector<size_t> current;

  void run() {
    current.reserve(target);
    descend(0, 0.0);
  }

  void descend(size_t next, double diameter) {
    if (current.size() == target) {
      if (diameter < best_diameter) {
        best_diameter = diameter;
        best = current;
      }
      return;
    }
    if (count - next < target - current.size()) return;
    for (size_t i = next; i < count; ++i) {
      double new_diameter = diameter;
      for (size_t j : current) new_diameter = std::max(new_diameter, dist[j][i]);
      if (new_diameter >= best_diameter) continue;  // prune
      current.push_back(i);
      descend(i + 1, new_diameter);
      current.pop_back();
    }
  }
};

}  // namespace

std::vector<size_t> mda_select(std::span<const Vector> gradients, size_t f) {
  const size_t count = gradients.size();
  std::vector<std::vector<double>> dist(count, std::vector<double>(count, 0.0));
  for (size_t i = 0; i < count; ++i)
    for (size_t j = i + 1; j < count; ++j)
      dist[i][j] = dist[j][i] = vec::dist(gradients[i], gradients[j]);

  ReferenceSubsetSearch search(dist, count, count - f);
  search.run();
  check_internal(search.best.size() == count - f, "reference::mda: subset search failed");
  return search.best;
}

Vector mda(std::span<const Vector> gradients, size_t f) {
  const auto subset = mda_select(gradients, f);
  return vec::mean_of(gradients, subset);
}

Vector coordinate_median(std::span<const Vector> gradients) {
  return stats::coordinate_median(gradients);
}

Vector trimmed_mean(std::span<const Vector> gradients, size_t f) {
  const size_t d = gradients[0].size();
  Vector out(d);
  std::vector<double> column(gradients.size());
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < gradients.size(); ++i) column[i] = gradients[i][c];
    out[c] = TrimmedMean::trimmed_mean_scalar(column, f);
  }
  return out;
}

std::vector<size_t> bulyan_select(std::span<const Vector> gradients, size_t n, size_t f) {
  const size_t theta = n - 2 * f;

  std::vector<size_t> remaining(gradients.size());
  for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  std::vector<size_t> selected;
  selected.reserve(theta);

  // Iterated Krum over a *copied*, shrinking pool — the seed recomputed
  // the full pairwise-distance matrix from scratch every round.
  std::vector<Vector> pool(gradients.begin(), gradients.end());
  while (selected.size() < theta) {
    const auto scores = krum_scores(pool, f);
    const size_t winner = krum_argmin(pool, scores);
    selected.push_back(remaining[winner]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(winner));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(winner));
  }
  return selected;
}

Vector bulyan(std::span<const Vector> gradients, size_t n, size_t f) {
  const auto selected = bulyan_select(gradients, n, f);
  const size_t theta = selected.size();
  const size_t beta = theta - 2 * f;
  check_internal(beta >= 1, "reference::bulyan: beta must be positive");

  std::vector<Vector> chosen;
  chosen.reserve(theta);
  for (size_t i : selected) chosen.push_back(gradients[i]);

  const size_t d = chosen[0].size();
  Vector out(d);
  std::vector<std::pair<double, double>> by_closeness(theta);  // (|v - med|, v)
  std::vector<double> column(theta);
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < theta; ++i) column[i] = chosen[i][c];
    const double med = stats::median(column);
    for (size_t i = 0; i < theta; ++i)
      by_closeness[i] = {std::abs(column[i] - med), column[i]};
    std::nth_element(by_closeness.begin(),
                     by_closeness.begin() + static_cast<std::ptrdiff_t>(beta - 1),
                     by_closeness.end());
    double acc = 0.0;
    for (size_t i = 0; i < beta; ++i) acc += by_closeness[i].second;
    out[c] = acc / static_cast<double>(beta);
  }
  return out;
}

Vector meamed(std::span<const Vector> gradients, size_t f) {
  const size_t count = gradients.size();
  const size_t keep = count - f;
  const size_t d = gradients[0].size();

  Vector out(d);
  std::vector<double> column(count);
  std::vector<std::pair<double, double>> by_closeness(count);  // (|v - med|, v)
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < count; ++i) column[i] = gradients[i][c];
    const double med = stats::median(column);
    for (size_t i = 0; i < count; ++i)
      by_closeness[i] = {std::abs(column[i] - med), column[i]};
    std::nth_element(by_closeness.begin(),
                     by_closeness.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     by_closeness.end());
    double acc = 0.0;
    for (size_t i = 0; i < keep; ++i) acc += by_closeness[i].second;
    out[c] = acc / static_cast<double>(keep);
  }
  return out;
}

Vector phocas(std::span<const Vector> gradients, size_t f) {
  const size_t count = gradients.size();
  const size_t keep = count - f;
  const size_t d = gradients[0].size();

  Vector out(d);
  std::vector<double> column(count);
  std::vector<std::pair<double, double>> by_closeness(count);  // (|v - tmean|, v)
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < count; ++i) column[i] = gradients[i][c];
    const double anchor = TrimmedMean::trimmed_mean_scalar(column, f);
    for (size_t i = 0; i < count; ++i)
      by_closeness[i] = {std::abs(column[i] - anchor), column[i]};
    std::nth_element(by_closeness.begin(),
                     by_closeness.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     by_closeness.end());
    double acc = 0.0;
    for (size_t i = 0; i < keep; ++i) acc += by_closeness[i].second;
    out[c] = acc / static_cast<double>(keep);
  }
  return out;
}

Vector geometric_median(std::span<const Vector> gradients, size_t max_iters,
                        double tolerance) {
  Vector z = vec::mean(gradients);
  constexpr double kEps = 1e-12;
  for (size_t iter = 0; iter < max_iters; ++iter) {
    Vector numerator(z.size(), 0.0);
    double denominator = 0.0;
    for (const Vector& g : gradients) {
      const double w = 1.0 / std::max(vec::dist(z, g), kEps);
      vec::axpy_inplace(numerator, w, g);
      denominator += w;
    }
    vec::scale_inplace(numerator, 1.0 / denominator);
    const double shift = vec::dist(numerator, z);
    z = std::move(numerator);
    if (shift <= tolerance) break;
  }
  return z;
}

Vector cge(std::span<const Vector> gradients, size_t n, size_t f) {
  std::vector<double> norms(gradients.size());
  for (size_t i = 0; i < gradients.size(); ++i) norms[i] = vec::norm_sq(gradients[i]);

  std::vector<size_t> order(gradients.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t keep = n - f;
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](size_t a, size_t b) {
                      return norms[a] < norms[b] ||
                             (norms[a] == norms[b] && gradients[a] < gradients[b]);
                    });
  order.resize(keep);
  return vec::mean_of(gradients, order);
}

}  // namespace dpbyz::reference
