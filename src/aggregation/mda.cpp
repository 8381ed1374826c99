#include "aggregation/mda.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregation/kf_table.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

Mda::Mda(size_t n, size_t f, PruneMode prune) : Aggregator(n, f), prune_(prune) {
  require(f >= 1, "Mda: requires f >= 1 (use Average when f = 0)");
  require(n >= 2 * f + 1, "Mda: requires n >= 2f + 1");
  require(f <= kMaxF,
          "Mda: f > 20 exceeds the exact search's 2^(f+1)-node bound; use multi-krum for "
          "large f");
}

namespace {

/// Stage 2 of the exact search: the bounded search tree for a size-f
/// vertex cover of the far-pair graph.  A node is an excluded set X
/// (`excluded`); its farthest uncovered pair (u, v) bounds from above the
/// diameter of every kept set that excludes X, and the node offers the
/// candidate "X padded to f rows with the highest-index free rows" at that
/// value.  Unless X is already f rows, the optimum below X excludes u or
/// v, so the node branches on exactly those two.  The lexicographically
/// smallest (value, exclusion mask) over all nodes is the lex-first
/// minimum-diameter kept set (a smaller mask keeps the earlier row at the
/// first difference), the one the seed's depth-first enumeration kept.
///
/// A node's own candidate has the smallest mask of any f-superset of X,
/// so once it has been offered, a node below it can only win on a
/// strictly smaller value; none falls below `floor`, a lower bound on the
/// optimum, so such a subtree is skipped (on tied rows, the whole walk).
struct CoverWalk {
  std::span<const RowPair> pairs;  // farthest first, covering every reachable node
  std::vector<uint8_t>& excluded;
  std::vector<uint8_t>& candidate;
  std::vector<uint8_t>& best_excluded;
  double best;
  double floor;

  void visit(size_t cursor, size_t budget) {
    while (excluded[pairs[cursor].i] || excluded[pairs[cursor].j]) ++cursor;
    const RowPair& far = pairs[cursor];
    if (far.dist <= best) {
      offer(far.dist, budget);
      if (best <= floor) return;
    }
    if (budget == 0) return;
    for (const uint32_t end : {far.i, far.j}) {
      excluded[end] = 1;
      visit(cursor + 1, budget - 1);
      excluded[end] = 0;
    }
  }

  void offer(double value, size_t budget) {
    candidate.assign(excluded.begin(), excluded.end());
    for (size_t r = candidate.size(); budget > 0; --r)
      if (!candidate[r - 1]) {
        candidate[r - 1] = 1;
        --budget;
      }
    if (value < best || candidate < best_excluded) {
      best = value;
      best_excluded.swap(candidate);
    }
  }
};

}  // namespace

void Mda::select_subset_view(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  const size_t keep = count - f();
  selection_dist_sq(batch, prune_, ws);
  // Square-root in place: the search must compare the exact doubles the
  // seed implementation compared (squared values would order two sets
  // that sqrt rounding ties).  MDA owns the matrix for the rest of this
  // call, so clobbering it is fine.
  for (double& x : ws.dist_sq) x = std::sqrt(x);
  const std::span<const double> dist(ws.dist_sq);

  // Stage 1, the incumbent: the first row whose (keep-1)-th nearest
  // neighbour is closest, kept with those neighbours.  That neighbour's
  // distance `lb` bounds every kept set's diameter from below (each member
  // has keep - 1 others in the set); the set's diameter `ub` bounds the
  // optimum from above.  A row is ranked only when it has keep - 1 others
  // strictly closer than the best so far (itself, at 0, makes keep).
  double lb = std::numeric_limits<double>::infinity();
  size_t centre = 0;
  for (size_t i = 0; i < count; ++i) {
    const std::span<const double> row = dist.subspan(i * count, count);
    size_t closer = 0;
    for (const double x : row) closer += x < lb;
    if (closer < keep) continue;
    ws.row.assign(row.begin(), row.end());
    std::nth_element(ws.row.begin(), ws.row.begin() + (keep - 1), ws.row.end());
    lb = ws.row[keep - 1];
    centre = i;
  }
  ws.order.clear();
  for (size_t j = 0; j < count; ++j)
    if (j != centre) ws.order.push_back(j);
  std::nth_element(ws.order.begin(), ws.order.begin() + (keep - 2), ws.order.end(),
                   [&](size_t a, size_t b) {
                     return dist[centre * count + a] < dist[centre * count + b];
                   });
  ws.best_excluded.assign(count, 1);
  ws.best_excluded[centre] = 0;
  for (size_t k = 0; k + 1 < keep; ++k) ws.best_excluded[ws.order[k]] = 0;
  double ub = 0.0;
  for (size_t i = 0; i < count; ++i)
    if (!ws.best_excluded[i])
      for (size_t j = i + 1; j < count; ++j)
        if (!ws.best_excluded[j]) ub = std::max(ub, dist[i * count + j]);

  // Buss's rule on the pairs farther apart than ub: every kept set with
  // diameter <= ub excludes a cover of them, and a row with more than
  // `budget` such pairs left must be in every cover within the budget.
  ws.active.assign(count, 0);
  for (size_t i = 0; i < count; ++i)
    for (size_t j = 0; j < count; ++j) ws.active[i] += dist[i * count + j] > ub;
  ws.excluded.assign(count, 0);
  size_t budget = f();
  for (bool forced = true; forced && budget > 0;) {
    forced = false;
    for (size_t i = 0; i < count && budget > 0; ++i) {
      if (ws.excluded[i] || ws.active[i] <= budget) continue;
      ws.excluded[i] = 1;
      --budget;
      forced = true;
      for (size_t j = 0; j < count; ++j) ws.active[j] -= dist[i * count + j] > ub;
    }
  }

  // f rows forced: their complement is the only kept set within ub, so it
  // is the optimum.  Otherwise walk the search tree below the forced rows.
  if (budget == 0) {
    ws.best_excluded.swap(ws.excluded);
  } else {
    // A node's farthest uncovered pair is at >= lb (the kept sets below it
    // have diameter >= lb) and among the f(n-1) - f(f-1)/2 + 1 farthest
    // (f excluded rows cover at most f(n-1) - f(f-1)/2 pairs).
    ws.pairs.clear();
    // Callers that skip reserve() (the adaptive attacks' shadow probes)
    // still grow the list once, not whenever more pairs pass than before.
    ws.pairs.reserve(count * (count - 1) / 2);
    for (size_t i = 0; i < count; ++i)
      for (size_t j = i + 1; j < count; ++j)
        if (dist[i * count + j] >= lb)
          ws.pairs.push_back({dist[i * count + j], static_cast<uint32_t>(i),
                              static_cast<uint32_t>(j)});
    const size_t reach =
        std::min(ws.pairs.size(), f() * (count - 1) - f() * (f() - 1) / 2 + 1);
    const auto end = ws.pairs.begin() + static_cast<std::ptrdiff_t>(reach);
    // Tied pairs may come in any order: which of them a node branches on
    // does not change the walk's result.
    const auto farther = [](const RowPair& a, const RowPair& b) { return a.dist > b.dist; };
    std::nth_element(ws.pairs.begin(), end - 1, ws.pairs.end(), farther);
    std::sort(ws.pairs.begin(), end, farther);
    CoverWalk walk{std::span<const RowPair>(ws.pairs.data(), reach), ws.excluded,
                   ws.candidate, ws.best_excluded, ub, lb};
    walk.visit(0, budget);
  }

  ws.selected.clear();
  for (size_t i = 0; i < count; ++i)
    if (!ws.best_excluded[i]) ws.selected.push_back(i);
  check_internal(ws.selected.size() == keep, "Mda: subset search failed");
}

void Mda::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  select_subset_view(batch, ws);
  mean_rows_of_into(batch, ws.selected, ws.output);
}

double Mda::vn_threshold() const { return kf::mda(n(), f()); }

}  // namespace dpbyz
