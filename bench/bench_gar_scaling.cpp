// bench_gar_scaling — GAR-level scaling up to n = 1000, with correctness
// and allocation gates.  One function per sweep:
//
//   main_sweep            (n, d) in {10, 25, 50} x {1e3, 1e4, 1e5} over
//                         Krum / MDA / Bulyan / average, plus MDA at the
//                         paper's n = 11, f = 5, d = 69 over a cycle of 64
//                         seeded batches: the view-based
//                         batch kernel vs the seed implementation preserved
//                         in tests/support/reference_gars, steady-state heap
//                         allocations of one batch call (counted by
//                         overriding global operator new — must be zero),
//                         and bit-identity of the two outputs.
//   fast_math_sweep       the opt-in fast-math kernels (math/kernels.hpp)
//                         on the rules the mode switches, CGE and the
//                         Weiszfeld geometric median, at (n, d) = (11, 69),
//                         (50, 1e4) and (50, 1e5) without --fast: scalar vs
//                         MathMode::kFast wall-clock, the max relative
//                         deviation from the scalar aggregate, fast-mode
//                         allocations and rerun determinism.  The JSON
//                         records the backend selected at runtime
//                         ("avx2" / "unrolled8").
//   prune_sweep           sketch distances (math/sketch.hpp) per selection
//                         GAR at d = 1e4, n up to 1000: prune = off vs
//                         approx wall-clock, approx allocations and the
//                         approx error envelope docs/AGGREGATORS.md cites,
//                         on a "lowdim" committee (1-D latent line plus
//                         jitter) and an "iid" control row.
//   pipeline_depth_sweep  the round engine's slot ring (core/pipeline.hpp)
//                         at n = 50, d = 1e4, depth k in {0, 1, 2, 4}:
//                         per-step wall-clock, the fill-wait / fill-busy /
//                         aggregate / apply split, steady-state allocations,
//                         depth-0 engine identity and per-depth determinism
//                         across reruns and thread widths.  step / (busy +
//                         aggregate) < 1 is the overlap win, only possible
//                         with >= 2 cores, so every row records the cores.
//   staleness_sweep       what that overlap costs: per GAR x depth on the
//                         phishing-like task under "little" (final
//                         accuracy/loss, min loss, steps-to-min), plus the
//                         Theorem-1 quadratic's excess loss per depth.
//   tree_sweep            flat vs tree (L = 2, B = 8) per GAR at n in
//                         {50, 200, 1000} (inadmissible cells recorded
//                         with their reasons), and the
//                         tree(L = 1, B = 1)-vs-flat and framed-vs-in-memory
//                         bit-identity gates.
//   wire_sweep            the raw64 wire: encode/decode time, bytes per
//                         row/round, codec allocations, checksum gates.
//
// Results go to stdout as tables and to BENCH_gar_scaling.json in the
// working directory.  Flags: --fast (skip d = 1e5 and the n = 1000
// cells), --budget-ms M (per-measurement time budget, default 300),
// --check (exit 1 if any gate registered by a sweep failed, printing each
// failure; CI runs `--fast --budget-ms 50 --check`).  Timings are only
// reported, never gated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "aggregation/aggregator.hpp"
#include "aggregation/hierarchical.hpp"
#include "aggregation/mda.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "math/vector_ops.hpp"
#include "models/linear_model.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "utils/table.hpp"

#include "reference_gars.hpp"

// ---- global allocation counter -------------------------------------------
// Replacing the global allocation functions lets the bench *prove* the
// zero-allocation claim instead of asserting it.  Counting is toggled only
// around the measured call (count_allocs).

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// GCC pattern-matches inlined std::allocator news in this TU against the
// replaced (non-std) deallocation functions below and mis-flags them as
// mismatched pairs.  Every replacement routes through malloc/free, so
// any new/delete pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using dpbyz::GradientBatch;
using dpbyz::Rng;
using dpbyz::Vector;
using Clock = std::chrono::steady_clock;

// ---- harness: timing, allocation counts, gates, rows ----------------------

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median wall time of one call, with `budget_s` seconds to spend.
template <typename Fn>
double time_call(Fn fn, double budget_s) {
  // One untimed call decides how many reps the budget affords.
  const auto probe_start = Clock::now();
  fn();
  const double probe = seconds_since(probe_start);
  size_t reps = probe > 0 ? static_cast<size_t>(budget_s / probe) : 50;
  if (reps < 1) reps = 1;
  if (reps > 50) reps = 50;

  std::vector<double> times(reps);
  for (size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    times[r] = seconds_since(start);
  }
  std::sort(times.begin(), times.end());
  return times[reps / 2];
}

/// Heap allocations performed by one call of `fn`.
template <typename Fn>
size_t count_allocs(Fn fn) {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  fn();
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

/// The gate registry: every sweep states its contracts inline, and
/// --check fails the process at exit if any of them did not hold.
std::vector<std::string> g_failures;

void gate(bool ok, const std::string& message) {
  if (!ok) g_failures.push_back(message);
}

/// One named, typed cell: `json` is its JSON literal; the table shows the
/// same literal, unquoted.
struct Cell {
  std::string key, json;
};
using Row = std::vector<Cell>;

Cell str(const char* key, const std::string& v) { return {key, "\"" + v + "\""}; }
Cell num(const char* key, size_t v) { return {key, std::to_string(v)}; }
Cell real(const char* key, double v, const char* format = "%.6f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return {key, buf};
}
Cell flag(const char* key, bool v) { return {key, v ? "true" : "false"}; }
Cell null(const char* key) { return {key, "null"}; }

/// The BENCH JSON under construction: ordered top-level entries, each a
/// scalar literal or a section of rows (printed as a table when added).
class Report {
 public:
  void scalar(const Cell& c) {
    std::printf("%s: %s\n", c.key.c_str(), c.json.c_str());
    entries_.push_back({c.key, c.json});
  }

  void section(const std::string& key, const std::vector<Row>& rows) {
    std::string json = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      json += i ? ",\n    {" : "\n    {";
      for (size_t c = 0; c < rows[i].size(); ++c)
        json += (c ? ", \"" : "\"") + rows[i][c].key + "\": " + rows[i][c].json;
      json += "}";
    }
    json += "\n  ]";
    entries_.push_back({key, json});
    row_count_ += rows.size();

    if (rows.empty()) return;
    std::vector<std::string> header;
    for (const Cell& c : rows[0]) header.push_back(c.key);
    dpbyz::table::Printer table(std::move(header));
    for (const Row& r : rows) {
      std::vector<std::string> cells;
      for (const Cell& c : r)
        cells.push_back(c.json.front() == '"' ? c.json.substr(1, c.json.size() - 2)
                                              : c.json);
      table.row(std::move(cells));
    }
    table.print();
    std::fflush(stdout);
  }

  bool write(const char* path) const {
    FILE* out = std::fopen(path, "w");
    if (!out) return false;
    std::fputs("{", out);
    for (size_t i = 0; i < entries_.size(); ++i)
      std::fprintf(out, "%s\n  \"%s\": %s", i ? "," : "", entries_[i].key.c_str(),
                   entries_[i].json.c_str());
    std::fputs("\n}\n", out);
    std::fclose(out);
    return true;
  }

  size_t row_count() const { return row_count_; }

 private:
  std::vector<Cell> entries_;
  size_t row_count_ = 0;
};

struct Options {
  bool fast = false;
  double budget_s = 0.3;
};

// ---- inputs ----------------------------------------------------------------

std::vector<Vector> make_gradients(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector v = rng.normal_vector(d, 1.0);
    v[0] += 1.0;
    g.push_back(std::move(v));
  }
  return g;
}

/// Low-intrinsic-dimension committee for the prune sweep: honest rows
/// live on a 1-D latent line through R^d (z ~ N(0, 1) along a fixed unit
/// direction) plus tiny isotropic jitter (sigma = 1e-4, so the batch is
/// *near* rank-1, not degenerate), and the f Byzantine rows sit far out
/// along the same line (z = 50 + i) — the dominant-gradient-direction
/// shape.  Byzantine rows come last so MDA's in-index-order
/// branch-and-bound meets the honest subset first (row order never
/// changes any GAR's output, only DFS wall-clock).
std::vector<Vector> make_lowdim_gradients(size_t n, size_t f, size_t d, uint64_t seed) {
  Rng rng(seed);
  Vector dir = rng.normal_vector(d, 1.0);
  const double inv = 1.0 / std::sqrt(dpbyz::vec::norm_sq(dir));
  for (double& x : dir) x *= inv;
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool byzantine = i + f >= n;
    const double z = byzantine ? 50.0 + static_cast<double>(i) : rng.normal(0.0, 1.0);
    Vector v = rng.normal_vector(d, 1e-4);
    for (size_t c = 0; c < d; ++c) v[c] += z * dir[c];
    g.push_back(std::move(v));
  }
  return g;
}

Vector to_vector(std::span<const double> view) { return Vector(view.begin(), view.end()); }

Vector run_reference(const std::string& gar, std::span<const Vector> g, size_t n, size_t f) {
  if (gar == "average") return dpbyz::reference::average(g);
  if (gar == "krum") return dpbyz::reference::krum(g, f);
  if (gar == "mda") return dpbyz::reference::mda(g, f);
  if (gar == "bulyan") return dpbyz::reference::bulyan(g, n, f);
  throw std::invalid_argument("run_reference: unknown GAR '" + gar + "'");
}

/// Largest admissible f per rule at this n (MDA at f = 2, so the seed's
/// subset enumeration it is checked against stays tractable at n = 50).
size_t pick_f(const std::string& gar, size_t n) {
  if (gar == "average") return 0;
  if (gar == "krum") return (n - 3) / 2;
  if (gar == "bulyan") return (n - 3) / 4;
  if (gar == "mda") return 2;
  return 0;
}

/// Whether the main sweep measures `gar` at (n, f); the
/// rule's constructor is the admissibility check.
bool swept(const std::string& gar, size_t n, size_t f) {
  if (gar != "average" && f == 0) return false;
  try {
    dpbyz::make_aggregator(gar, n, f);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

const std::vector<std::string> kGars{"average", "krum", "mda", "bulyan"};

// ---- main sweep: batch kernel vs the seed implementation -------------------

void main_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("batch kernel vs seed implementation");
  std::vector<size_t> ds{1000, 10000, 100000};
  if (opt.fast) ds.pop_back();

  std::vector<Row> rows;
  // One cell: `batches` seeded inputs (seeds 42, 43, ...), every one
  // gated for bit-identity and zero steady-state allocations; the timed
  // call cycles through all of them, so batch_ms / seed_ms are per-call
  // medians over the cycle rather than one input's.
  auto measure = [&](const std::string& gar, size_t n, size_t d, size_t f, size_t batches) {
    std::vector<std::vector<Vector>> inputs;
    std::vector<GradientBatch> packed;
    for (size_t b = 0; b < batches; ++b) {
      inputs.push_back(make_gradients(n, d, 42 + b));
      packed.push_back(GradientBatch::from_vectors(inputs.back()));
    }
    const auto agg = dpbyz::make_aggregator(gar, n, f);
    dpbyz::AggregatorWorkspace ws;

    // Warm up the workspace, then prove the steady state is
    // allocation-free and bit-identical to the seed on every batch.
    agg->aggregate(packed[0], ws);
    size_t allocs = 0;
    bool identical = true;
    for (size_t b = 0; b < batches; ++b) {
      allocs = std::max(allocs, count_allocs([&] { agg->aggregate(packed[b], ws); }));
      if (to_vector(agg->aggregate(packed[b], ws)) != run_reference(gar, inputs[b], n, f))
        identical = false;
    }

    const auto batch_cycle = [&] {
      for (const GradientBatch& batch : packed) agg->aggregate(batch, ws);
    };
    // The seed aggregate() validated finiteness/dimensions on every
    // call before running the GAR, and the batch path above still does;
    // include that cost on the reference side for a like-for-like
    // comparison.
    const auto seed_cycle = [&] {
      for (const auto& gradients : inputs) {
        for (const Vector& g : gradients)
          if (g.size() != d || !dpbyz::vec::all_finite(g))
            throw std::invalid_argument("malformed gradient");
        run_reference(gar, gradients, n, f);
      }
    };
    const double new_s = time_call(batch_cycle, opt.budget_s) / static_cast<double>(batches);
    const double ref_s = time_call(seed_cycle, opt.budget_s) / static_cast<double>(batches);

    const std::string cell = gar + " n=" + std::to_string(n) + " d=" + std::to_string(d);
    gate(identical, cell + ": batch kernel diverged from the seed implementation");
    gate(allocs == 0, cell + ": " + std::to_string(allocs) + " allocs after warmup");
    rows.push_back({str("gar", gar), num("n", n), num("d", d), num("f", f),
                    num("batches", batches), real("batch_ms", new_s * 1e3),
                    real("seed_ms", ref_s * 1e3), real("speedup", ref_s / new_s, "%.3f"),
                    num("allocs_after_warmup", allocs), flag("bit_identical", identical)});
  };
  for (const auto& gar : kGars)
    for (size_t n : {size_t{10}, size_t{25}, size_t{50}})
      for (size_t d : ds)
        if (const size_t f = pick_f(gar, n); swept(gar, n, f)) measure(gar, n, d, f, 1);
  // The paper's DP-only MDA shape (Fig. 2: n = 11, f = 5, d = 69) on
  // i.i.d. Gaussian rows, where the exact search rarely settles at its
  // root and its cost varies from batch to batch: one batch is not a
  // measurement, so this cell cycles over 64.  Its speedup is recorded,
  // not gated.
  measure("mda", 11, 69, 5, 64);
  report.section("results", rows);
}

// ---- fast-math sweep: opt-in kernels vs the scalar default -----------------
// Same aggregator, same inputs, only the process-global math mode
// differs.  The swept rules are the ones whose cost is the single-vector
// reductions the mode switches: CGE's norms (it picks the same rows in
// both modes on generic inputs, so its deviation is 0) and Weiszfeld's
// distances (iterative, so the reassociation error accumulates; the
// column catches a kernel change that breaks the documented bound).

void fast_math_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("fast-math kernels vs the scalar default");
  // (n, d): the paper's phishing shape, then the large synthetic ones.
  std::vector<std::pair<size_t, size_t>> shapes{{11, 69}, {50, 10000}};
  if (!opt.fast) shapes.push_back({50, 100000});  // the large-d point

  report.scalar(str("fast_math_backend", dpbyz::kernels::fast_backend()));

  // The fast-mode accuracy contract (kernels.hpp): end-to-end deviation
  // stays far inside 1e-8.
  constexpr double kFastRelErrBound = 1e-8;
  std::vector<Row> rows;
  for (const std::string gar : {"cge", "geometric-median"}) {
    for (const auto& [n, d] : shapes) {
      const size_t f = (n - 1) / 2;  // the largest budget both rules admit
      const GradientBatch batch = GradientBatch::from_vectors(make_gradients(n, d, 42));
      const auto agg = dpbyz::make_aggregator(gar, n, f);
      dpbyz::AggregatorWorkspace ws;

      const Vector scalar_out = to_vector(agg->aggregate(batch, ws));
      const double scalar_s = time_call([&] { agg->aggregate(batch, ws); }, opt.budget_s);

      Vector fast_out, fast_rerun;
      size_t allocs = 0;
      double fast_s = 0.0;
      {
        const dpbyz::kernels::MathModeScope scope(dpbyz::kernels::MathMode::kFast);
        fast_out = to_vector(agg->aggregate(batch, ws));  // warm fast path
        allocs = count_allocs([&] { agg->aggregate(batch, ws); });
        fast_rerun = to_vector(agg->aggregate(batch, ws));
        fast_s = time_call([&] { agg->aggregate(batch, ws); }, opt.budget_s);
      }

      double max_rel_err = 0.0;
      for (size_t i = 0; i < scalar_out.size(); ++i) {
        const double denom = std::max(1.0, std::abs(scalar_out[i]));
        max_rel_err = std::max(max_rel_err, std::abs(fast_out[i] - scalar_out[i]) / denom);
      }
      const bool deterministic = fast_out == fast_rerun;

      const std::string cell =
          "fast-math " + gar + " n=" + std::to_string(n) + " d=" + std::to_string(d);
      gate(deterministic, cell + ": fast mode is not deterministic across reruns");
      gate(max_rel_err <= kFastRelErrBound, cell + ": deviation " +
                                                std::to_string(max_rel_err) +
                                                " exceeds the documented bound");
      gate(allocs == 0, cell + ": " + std::to_string(allocs) + " allocs after warmup");
      rows.push_back({str("gar", gar), num("n", n), num("d", d), num("f", f),
                      real("scalar_ms", scalar_s * 1e3), real("fast_ms", fast_s * 1e3),
                      real("speedup", scalar_s / fast_s, "%.3f"),
                      real("max_rel_err", max_rel_err, "%.3e"),
                      num("allocs_after_warmup", allocs), flag("deterministic", deterministic)});
    }
  }
  report.section("fast_math_sweep", rows);
}

// ---- prune sweep: sketch distances under the selection GARs ---------------
// d = 1e4 throughout; n climbs to 1000 for krum and bulyan, where the
// O(n²·d) matrix dominates and the sketch's O(n·d·k + n²·k) pays most.
// MDA and multi-krum stay at n <= 200 to keep the full run under budget.

/// Largest admissible f per selection rule at this n (MDA keeps the
/// small f = 2 of the main sweep; exact MDA grows like 2^f).
size_t pick_prune_f(const std::string& gar, size_t n) {
  if (gar == "krum" || gar == "multi-krum") return (n - 3) / 2;
  if (gar == "bulyan") return (n - 3) / 4;
  return 2;  // mda
}

/// The selection a finished aggregate call made, as a sorted index set —
/// read back from the workspace (mda/bulyan leave ws.selected,
/// multi-krum the first m of ws.order) or, for krum, by locating the
/// output row in the batch.  Bench-only introspection: the public
/// contract is the aggregate, the selection is what the disagreement
/// envelope is *about*.
std::vector<size_t> selected_set(const std::string& gar, const GradientBatch& batch,
                                 const dpbyz::AggregatorWorkspace& ws,
                                 const Vector& output, size_t m) {
  std::vector<size_t> s;
  if (gar == "krum") {
    for (size_t i = 0; i < batch.rows(); ++i) {
      const auto row = batch.row(i);
      if (std::equal(row.begin(), row.end(), output.begin(), output.end())) {
        s.push_back(i);
        break;
      }
    }
  } else if (gar == "multi-krum") {
    s.assign(ws.order.begin(), ws.order.begin() + static_cast<std::ptrdiff_t>(m));
  } else {
    s = ws.selected;
  }
  std::sort(s.begin(), s.end());
  return s;
}

/// Fraction of `a`'s indices not in `b` (both sorted; equal-size sets in
/// every caller, so this is symmetric in practice).
double selection_disagreement(const std::vector<size_t>& a, const std::vector<size_t>& b) {
  std::vector<size_t> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(common));
  return a.empty() ? 0.0
                   : 1.0 - static_cast<double>(common.size()) / static_cast<double>(a.size());
}

/// ||got − want||₂ / ||want||₂.
double rel_l2_err(const Vector& got, const Vector& want) {
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    const double diff = got[i] - want[i];
    num += diff * diff;
    den += want[i] * want[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

void prune_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("sketch distances: prune = off vs approx");
  const size_t d = 10000;
  struct PruneCell {
    std::string gar, geometry;
    size_t n;
  };
  std::vector<PruneCell> cells;
  for (const std::string gar : {"krum", "multi-krum", "mda", "bulyan"}) {
    for (size_t n : {size_t{50}, size_t{200}, size_t{1000}}) {
      if (opt.fast && n > 50) continue;
      if (n == 1000 && gar != "krum" && gar != "bulyan") continue;
      cells.push_back({gar, "lowdim", n});
    }
  }
  cells.push_back({"krum", "iid", opt.fast ? size_t{50} : size_t{200}});

  std::vector<Row> rows;
  for (const PruneCell& cell : cells) {
    const size_t n = cell.n;
    const size_t f = pick_prune_f(cell.gar, n);
    const auto gradients = cell.geometry == "iid" ? make_gradients(n, d, 42)
                                                  : make_lowdim_gradients(n, f, d, 42);
    const GradientBatch batch = GradientBatch::from_vectors(gradients);
    const size_t m = cell.gar == "multi-krum" ? n - f : 0;

    const auto off = dpbyz::make_aggregator(cell.gar, n, f);
    const auto approx = dpbyz::make_aggregator(cell.gar, n, f, dpbyz::PruneMode::kApprox);
    dpbyz::AggregatorWorkspace ws_off, ws_approx;

    const Vector off_out = to_vector(off->aggregate(batch, ws_off));
    const auto off_sel = selected_set(cell.gar, batch, ws_off, off_out, m);
    const double off_s = time_call([&] { off->aggregate(batch, ws_off); }, opt.budget_s);

    // Approx mode: warm, record the error envelope against off, prove the
    // steady state allocation-free, then time.  No wall-clock gate.
    const Vector approx_out = to_vector(approx->aggregate(batch, ws_approx));
    const auto approx_sel = selected_set(cell.gar, batch, ws_approx, approx_out, m);
    const size_t approx_allocs = count_allocs([&] { approx->aggregate(batch, ws_approx); });
    const double approx_s =
        time_call([&] { approx->aggregate(batch, ws_approx); }, opt.budget_s);

    const std::string where = cell.gar + " n=" + std::to_string(n);
    gate(approx_allocs == 0, "prune=approx " + where + ": " +
                                 std::to_string(approx_allocs) + " allocs after warmup");
    rows.push_back({str("gar", cell.gar), str("geometry", cell.geometry), num("n", n),
                    num("d", d), num("f", f), real("off_ms", off_s * 1e3),
                    real("approx_ms", approx_s * 1e3),
                    real("speedup_approx", off_s / approx_s, "%.3f"),
                    num("approx_allocs_after_warmup", approx_allocs),
                    real("approx_selection_disagreement",
                         selection_disagreement(off_sel, approx_sel), "%.4f"),
                    real("approx_aggregate_rel_err", rel_l2_err(approx_out, off_out), "%.3e")});
  }
  report.section("prune_sweep", rows);
}

// ---- pipeline-depth sweep: the ring engine's overlap ------------------------
// n = 50, d = 1e4, MDA at f = 2: a task where the fill (n worker pipelines
// at b × d work each) and the O(n²d) aggregation are the same order of
// magnitude — the shape the ring exists for.

bool same_run(const dpbyz::RunResult& a, const dpbyz::RunResult& b) {
  return a.final_parameters == b.final_parameters && a.train_loss == b.train_loss;
}

void pipeline_depth_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("round-engine ring depth (mda, n = 50, d = 1e4)");
  const size_t n = 50, d = 10000, f = 2;
  const size_t steps = opt.fast ? 10 : 20;
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());

  dpbyz::BlobsConfig bc;
  bc.num_samples = 256;
  bc.num_features = d;
  bc.separation = 4.0;
  const dpbyz::Dataset data = dpbyz::make_blobs(bc, 42);
  const dpbyz::LinearModel model(d, dpbyz::LinearLoss::kMseOnSigmoid);

  dpbyz::ExperimentConfig cfg;
  cfg.num_workers = n;
  cfg.num_byzantine = f;
  cfg.gar = "mda";
  cfg.batch_size = 10;
  cfg.steps = steps;
  cfg.eval_every = steps;  // accuracy only at the final step

  auto run_cfg = [&](const dpbyz::ExperimentConfig& c) {
    return dpbyz::Trainer(c, model, data, data).run();
  };
  // Steady-state allocations per step, isolated as the alloc-count
  // difference between a 5- and a 25-step run: construction, reserves
  // (k + 1 ring arenas included), the single final eval and the GAR-cache
  // warmup all happen once in each run and cancel in the difference.
  auto allocs_per_step = [&](dpbyz::ExperimentConfig c) {
    auto counted = [&](size_t s) {
      c.steps = s;
      c.eval_every = s;
      return count_allocs([&] { run_cfg(c); });
    };
    const size_t base = counted(5);
    return static_cast<double>(counted(25) - base) / 20.0;
  };

  std::vector<Row> rows;
  for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    dpbyz::ExperimentConfig c = cfg;
    c.pipeline_depth = depth;
    c.threads = depth > 0 && cores > 1 ? 2 : 1;

    const auto start = Clock::now();
    const auto run = run_cfg(c);
    const double per_step = 1e3 / static_cast<double>(steps);
    const double step_ms = seconds_since(start) * per_step;
    const double busy_ms = run.phase.fill_busy * per_step;
    const double agg_ms = run.phase.aggregate * per_step;

    // Determinism at this depth: rerun, and rerun at the other thread
    // width — both must be bit-equal (the ring is timing-independent).
    dpbyz::ExperimentConfig alt = c;
    alt.threads = c.threads == 1 ? 2 : 1;
    const bool deterministic = same_run(run_cfg(c), run) && same_run(run_cfg(alt), run);

    // Engine schedule-neutrality (depth 0 only): iid participation at
    // p = 1 never drops anyone, so its trajectory must be bit-equal to
    // the default full-participation run (the depth-0 seed semantics are
    // golden-pinned in tests/test_pipeline.cpp, the depth-k ones in
    // tests/test_pipeline_ring.cpp).
    std::optional<bool> engine_identical;
    if (depth == 0) {
      dpbyz::ExperimentConfig engine0 = c;
      engine0.participation = "iid";
      engine0.participation_prob = 1.0;
      engine_identical = same_run(run_cfg(engine0), run);
    }
    const double allocs = allocs_per_step(c);

    // Ring gates: the depth-0 engine matches the synchronous loop, every
    // depth replays bit-identically across reruns and thread widths, and
    // the steady state stays allocation-free (the k + 1 arenas are all
    // preallocated up front).
    gate(engine_identical.value_or(true),
         "round engine depth-0 fill order diverged from the synchronous loop");
    gate(deterministic, "depth-" + std::to_string(depth) +
                            " trainer is not deterministic across reruns/thread widths");
    gate(allocs == 0.0, "round engine depth-" + std::to_string(depth) +
                            " steady state allocates (" + std::to_string(allocs) +
                            " per step)");
    rows.push_back({str("gar", "mda"), num("depth", depth), num("n", n), num("d", d),
                    num("f", f), num("cores", cores), real("step_ms", step_ms),
                    real("fill_wait_ms", run.phase.fill * per_step),
                    real("fill_busy_ms", busy_ms), real("aggregate_ms", agg_ms),
                    real("apply_ms", run.phase.apply * per_step),
                    real("step_vs_busy_plus_agg", step_ms / (busy_ms + agg_ms), "%.3f"),
                    real("allocs_per_step", allocs, "%.1f"),
                    engine_identical ? flag("engine_bit_identical", *engine_identical)
                                     : null("engine_bit_identical"),
                    flag("deterministic", deterministic)});
  }
  report.section("pipeline_depth_sweep", rows);
  if (cores == 1)
    std::printf("(single-CPU host: the fill thread and the aggregating thread "
                "time-slice one core, so step_vs_busy_plus_agg cannot drop below 1 "
                "here — the overlap win needs >= 2 cores.)\n");
}

// ---- convergence vs staleness: what the overlap costs ----------------------
// The ring buys wall-clock by training on gradients up to k versions
// stale; this sweep records what that does to convergence, per GAR, on
// the paper's phishing-like task (n = 11, f = 2, "little" attack), so
// docs/ARCHITECTURE.md's caveat table points at measured numbers.  A
// quadratic companion runs the Theorem-1 strongly-convex task (exact
// excess loss) over the same depths — the cleanest single number for the
// staleness penalty.

void staleness_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("convergence vs ring depth (phishing-like, little attack)");
  const std::vector<size_t> depths{0, 1, 2, 4};
  const dpbyz::PhishingExperiment phishing(42);
  dpbyz::ExperimentConfig cfg;
  cfg.num_workers = 11;
  cfg.num_byzantine = 2;
  cfg.steps = opt.fast ? 100 : 300;
  cfg.eval_every = cfg.steps;
  cfg.batch_size = 50;
  cfg.attack_enabled = true;
  cfg.attack = "little";

  std::vector<Row> rows;
  for (const char* gar : {"average", "krum", "mda", "median"}) {
    for (const size_t depth : depths) {
      dpbyz::ExperimentConfig c = cfg;
      c.gar = gar;
      c.pipeline_depth = depth;
      const auto run = phishing.run(c);
      rows.push_back({str("gar", gar), num("depth", depth),
                      real("final_accuracy", run.final_accuracy),
                      real("final_loss", run.final_train_loss, "%.8f"),
                      real("min_loss", run.min_train_loss, "%.8f"),
                      num("steps_to_min", run.steps_to_min_loss)});
    }
  }
  report.section("staleness_convergence", rows);

  // Theorem-1 tie-in: gamma_t = 1/(lambda t) on the strongly-convex
  // Gaussian-mean task; excess loss of the final iterate, mean over 3
  // seeds, per depth.  Theorem 1's O(1/T) rate is proved for the
  // synchronous loop; the committed curve shows how gently (or not)
  // bounded staleness degrades it.
  dpbyz::table::banner("theorem-1 quadratic (d = 32): excess loss vs ring depth");
  const dpbyz::QuadraticExperiment quad(32, 1.0, 42, 20000);
  dpbyz::ExperimentConfig qc;
  qc.num_workers = 4;
  qc.num_byzantine = 0;
  qc.gar = "average";
  qc.batch_size = 10;
  qc.steps = opt.fast ? 150 : 400;
  qc.eval_every = qc.steps;
  qc.momentum = 0.0;
  qc.lr_schedule = "theorem1";
  qc.learning_rate = 1.0;
  qc.clip_norm = 3.0;
  qc.clip_enabled = false;
  rows.clear();
  for (const size_t depth : depths) {
    dpbyz::ExperimentConfig c = qc;
    c.pipeline_depth = depth;
    rows.push_back({num("depth", depth),
                    real("excess_loss", quad.mean_excess_loss(c, 3), "%.8f")});
  }
  report.section("staleness_quadratic_excess", rows);
}

// ---- tree sweep: flat vs the hierarchical tree ------------------------------
// d = 1e3 so the n = 1000 flat O(n²d) point stays rerunnable.  f = 2 for
// the robust rules, f = 0 for average.  Cells whose derived per-level
// budget is inadmissible — (L=2, B=8) needs 64 non-empty leaves, and
// 3-row leaves cannot host krum at f_child = 1 — are recorded with the
// constructor's own message, not silently dropped.

void tree_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("flat vs tree(L=2,B=8), d = 1e3");
  const size_t d = 1000;
  std::vector<size_t> ns{50, 200, 1000};
  if (opt.fast) ns.pop_back();

  std::vector<Row> rows;
  for (const std::string gar : {"krum", "mda", "average"}) {
    for (const size_t n : ns) {
      const size_t f = gar == "average" ? 0 : 2;
      const GradientBatch batch = GradientBatch::from_vectors(make_gradients(n, d, 42));
      // `make` returns the aggregator to measure, or throws
      // std::invalid_argument with the reason the cell is skipped.
      auto measure = [&](const std::string& topology, auto make) {
        Row row{str("gar", gar), str("topology", topology), num("n", n), num("d", d),
                num("f", f)};
        try {
          const auto agg = make();
          dpbyz::AggregatorWorkspace ws;
          agg->aggregate(batch, ws);  // warm every retained buffer
          const size_t allocs = count_allocs([&] { agg->aggregate(batch, ws); });
          const double ms =
              time_call([&] { agg->aggregate(batch, ws); }, opt.budget_s) * 1e3;
          gate(allocs == 0, topology + " " + gar + " n=" + std::to_string(n) + ": " +
                                std::to_string(allocs) + " allocs after warmup");
          row.insert(row.end(), {real("step_ms", ms), num("allocs_after_warmup", allocs),
                                 null("skipped")});
        } catch (const std::invalid_argument& e) {
          row.insert(row.end(), {null("step_ms"), null("allocs_after_warmup"),
                                 str("skipped", e.what())});
        }
        rows.push_back(std::move(row));
      };
      measure("flat", [&] { return dpbyz::make_aggregator(gar, n, f); });
      measure("tree(L=2,B=8)", [&] {
        return std::make_unique<dpbyz::HierarchicalAggregator>(gar, "median", n, f, 2, 8);
      });
    }
  }
  report.section("tree_sweep", rows);

  // Tree gates at n = 48, per inner GAR: tree(L = 1, B = 1) must be
  // bit-identical to the flat rule, the (L = 1, B = 4) tree over the
  // ideal framed raw64 link bit-identical to the in-memory tree, and the
  // framed steady state allocation-free.  (The L = 1 outputs themselves
  // are hexfloat-pinned in tests/test_hierarchical.cpp.)
  dpbyz::table::banner("tree gates: B = 1 vs flat, framed vs in-memory (n = 48)");
  const size_t gn = 48;
  const GradientBatch batch = GradientBatch::from_vectors(make_gradients(gn, 4096, 42));
  const dpbyz::net::LinkConfig ideal;  // raw64, no faults
  rows.clear();
  for (const std::string gar : {"krum", "mda", "average"}) {
    const size_t f = gar == "average" ? 0 : 2;
    const auto flat = dpbyz::make_aggregator(gar, gn, f);
    const dpbyz::HierarchicalAggregator single(gar, "median", gn, f, 1, 1);
    const dpbyz::HierarchicalAggregator tree(gar, "median", gn, f, 1, 4);
    const dpbyz::HierarchicalAggregator framed(gar, "median", gn, f, 1, 4, 1,
                                               dpbyz::PruneMode::kOff, &ideal);
    dpbyz::AggregatorWorkspace ws_flat, ws_b1, ws_t, ws_f;
    const bool b1_identical =
        to_vector(single.aggregate(batch, ws_b1)) == to_vector(flat->aggregate(batch, ws_flat));
    const Vector want = to_vector(tree.aggregate(batch, ws_t));
    framed.aggregate(batch, ws_f);  // warm the wire buffers
    std::span<const double> view;
    const size_t allocs = count_allocs([&] { view = framed.aggregate(batch, ws_f); });
    const bool framed_identical = to_vector(view) == want;

    gate(b1_identical, "tree(L=1,B=1) " + gar + " diverged from the flat rule");
    gate(framed_identical,
         "framed (ideal raw64) tree L=1 " + gar + " diverged from the in-memory tree B=4");
    gate(allocs == 0, "framed tree " + gar + ": " + std::to_string(allocs) +
                          " allocs after warmup");
    rows.push_back({str("gar", gar), num("n", gn), num("f", f), num("branch", 4),
                    flag("b1_bit_identical_to_flat", b1_identical),
                    flag("l1_framed_bit_identical", framed_identical),
                    num("framed_allocs_after_warmup", allocs)});
  }
  report.section("tree_gates", rows);
}

// ---- wire sweep: encode/decode throughput and bytes per round ---------------
// One d = 1e4 row over the raw64 wire: median encode and decode+apply
// wall-clock, the steady-state allocation count of a full codec cycle
// (must be 0), the checksum gates (round trip byte-exact; one flipped byte
// always rejected), and the bytes one framed n = 48, L = 1, B = 4 tree
// round puts on the wire (4 edges × d = 4096).

void wire_sweep(Report& report, const Options& opt) {
  dpbyz::table::banner("raw64 wire codec, d = 1e4");
  namespace net = dpbyz::net;
  const size_t wd = 10000;
  Rng rng(42);
  const Vector row = rng.normal_vector(wd, 1.0);
  const GradientBatch tree_batch = GradientBatch::from_vectors(make_gradients(48, 4096, 42));

  net::FrameEncoder enc(net::WireMode::kRaw64, 1024);
  net::FrameBuffer frames;
  Vector decoded(wd, 0.0);
  auto encode = [&] {
    frames.clear();
    enc.encode_row(row, frames);
  };
  auto decode_all = [&] {
    for (size_t i = 0; i < frames.count(); ++i) {
      net::FrameView chunk;
      if (net::decode_frame(frames.frame(i), chunk) != net::DecodeStatus::kOk ||
          !net::apply_chunk(chunk, decoded))
        std::abort();  // a healthy frame must always decode
    }
  };

  // Warm, then prove the encode+decode cycle is allocation-free.
  encode();
  decode_all();
  const size_t allocs = count_allocs([&] {
    encode();
    decode_all();
  });
  const double encode_ms = time_call(encode, opt.budget_s) * 1e3;
  const double decode_ms = time_call(decode_all, opt.budget_s) * 1e3;

  std::fill(decoded.begin(), decoded.end(), 0.0);
  decode_all();
  const bool round_trip_exact = decoded == row;

  // One flipped byte anywhere must fail the CRC.
  const std::span<const uint8_t> good = frames.frame(0);
  std::vector<uint8_t> bad(good.begin(), good.end());
  bad[bad.size() / 2] ^= 0x40;
  net::FrameView chunk;
  const bool corrupt_rejected = net::decode_frame(bad, chunk) != net::DecodeStatus::kOk;

  // Bytes one framed tree round actually sends.
  const net::LinkConfig link;
  const dpbyz::HierarchicalAggregator framed("median", "median", 48, 2, 1, 4, 1,
                                             dpbyz::PruneMode::kOff, &link);
  dpbyz::AggregatorWorkspace ws;
  framed.aggregate(tree_batch, ws);

  gate(round_trip_exact, "raw64 wire round trip is not byte-exact");
  gate(corrupt_rejected, "raw64 wire: a corrupted frame passed the checksum");
  gate(allocs == 0, "raw64 wire codec: " + std::to_string(allocs) + " allocs after warmup");
  report.section(
      "wire_sweep",
      {{str("mode", "raw64"), num("d", wd), num("bytes_per_row", enc.bytes_per_row(wd)),
        num("frames_per_row", enc.chunks(wd)), real("encode_ms", encode_ms),
        real("decode_ms", decode_ms), num("codec_allocs_after_warmup", allocs),
        flag("round_trip_exact", round_trip_exact), flag("corrupt_rejected", corrupt_rejected),
        num("tree_bytes_per_round", framed.channel_stats().bytes_sent)}});
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool check = false;
  double budget_ms = 300.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) opt.fast = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc)
      budget_ms = std::atof(argv[++i]);
  }
  opt.budget_s = budget_ms / 1000.0;

  Report report;
  report.scalar(str("bench", "gar_scaling"));
  report.scalar(num("cores", std::max(1u, std::thread::hardware_concurrency())));
  report.scalar(flag("fast", opt.fast));
  report.scalar(real("budget_ms", budget_ms, "%.1f"));
  // Every *_ms figure is the median of 1-50 timed calls (as many as
  // budget_ms affords after one untimed probe call; see time_call).
  report.scalar(str("timing", "median of 1-50 timed calls per cell within budget_ms"));

  main_sweep(report, opt);
  fast_math_sweep(report, opt);
  prune_sweep(report, opt);
  pipeline_depth_sweep(report, opt);
  staleness_sweep(report, opt);
  tree_sweep(report, opt);
  wire_sweep(report, opt);

  if (!report.write("BENCH_gar_scaling.json")) {
    std::fprintf(stderr, "cannot open BENCH_gar_scaling.json for writing\n");
    return 1;
  }
  std::printf("\nwrote BENCH_gar_scaling.json (%zu configurations)\n", report.row_count());

  if (!check) return 0;
  for (const std::string& failure : g_failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  if (!g_failures.empty()) {
    std::fprintf(stderr, "--check: %zu violation(s)\n", g_failures.size());
    return 1;
  }
  std::printf("--check: all correctness and allocation gates passed\n");
  return 0;
}
