#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "compose.hpp"
#include "host_speed.hpp"
#include "core/experiment.hpp"
#include "core/reputation.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "models/linear_model.hpp"
#include "models/optimizer.hpp"
#include "net/frame.hpp"
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"
#include "trace.hpp"
#include "utils/parallel.hpp"

namespace roundbench {

using namespace dpbyz;
namespace fs = std::filesystem;

namespace {

// ---- sizes -----------------------------------------------------------------
// Set-up is repeated and its median reported, so one slow repetition on
// a shared host does not move setup_s.
constexpr size_t kSetupReps = 5;
// Distinct run seeds each single-run workload cycles through; every seed
// runs at least twice, and each repeat is checked bit-identical to the
// first run of that seed.
constexpr size_t kRunSeeds = 10;
// The campaign's cell-level parallelism (pool threads).
constexpr size_t kCellThreads = 2;

// Salts for deriving every generated input from --seed.
constexpr uint64_t kDataSalt = 1, kRunSalt = 2, kChannelSalt = 3, kChurnSalt = 4;

uint64_t derive(uint64_t seed, uint64_t salt, uint64_t index = 0) {
  return splitmix64(seed ^ splitmix64(salt * 0x100000001b3ULL + index));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

// ---- timed repetitions --------------------------------------------------------

/// Runs timed repetitions, each followed by one host-speed slice; a
/// repetition's speed is the mean of the slices on either side of it.
class PairedTimer {
 public:
  explicit PairedTimer(size_t threads) : host_(threads), before_(host_.sample()) {}

  /// Times fn() and records its work: `rounds` training rounds, `cells`
  /// runs or cells.
  template <typename Fn>
  void run(Fn&& fn, size_t rounds, size_t cells) {
    const double cpu0 = cpu_seconds();
    const int64_t t0 = now_ns();
    fn();
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    const double after = host_.sample();
    const double speed = 0.5 * (before_ + after);
    before_ = after;
    wall_.push_back(wall);
    cpu_.push_back(cpu);
    speed_.push_back(speed);
    rounds_.push_back(static_cast<double>(rounds));
    cells_.push_back(static_cast<double>(cells));
  }
  size_t count() const { return wall_.size(); }

  /// Medians over repetitions, rescaled to the nominal host
  /// (`nominal` = false: as measured on this host).
  double rounds_per_s(bool nominal) const {
    return median_over([&](size_t i) { return rounds_[i] / time(wall_, i, nominal); });
  }
  double cells_per_s(bool nominal) const {
    return median_over([&](size_t i) { return cells_[i] / time(wall_, i, nominal); });
  }
  double cpu_s_per_kround(bool nominal) const {
    return median_over(
        [&](size_t i) { return time(cpu_, i, nominal) / (rounds_[i] / 1000.0); });
  }
  double wall_s(bool nominal) const {
    return median_over([&](size_t i) { return time(wall_, i, nominal); });
  }
  double speed() const { return median(speed_); }

  /// One stderr line per repetition: wall seconds, host speed.
  void log(const char* what) const {
    for (size_t i = 0; i < count(); ++i)
      std::fprintf(stderr, "roundbench: %s %zu: %.4f s at host speed %.3f\n", what, i,
                   wall_[i], speed_[i]);
  }

 private:
  double time(const std::vector<double>& seconds, size_t i, bool nominal) const {
    return seconds[i] * (nominal ? speed_[i] : 1.0);
  }
  template <typename F>
  double median_over(F f) const {
    std::vector<double> v;
    for (size_t i = 0; i < count(); ++i) v.push_back(f(i));
    return median(v);
  }

  HostSpeed host_;
  double before_;
  std::vector<double> wall_, cpu_, speed_, rounds_, cells_;
};

/// The end-to-end metrics every workload reports.  Times and rates are
/// rescaled to the nominal host (host_speed.hpp); the figures as measured
/// on this host go to the record as "as_measured".
void set_end_to_end(Outcome& out, const PairedTimer& timed, const PairedTimer& setup,
                    double accuracy) {
  out.set("rounds_per_s", timed.rounds_per_s(true));
  out.set("cells_per_s", timed.cells_per_s(true));
  out.set("cpu_s_per_kround", timed.cpu_s_per_kround(true));
  out.set("setup_s", setup.wall_s(true));
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("final_accuracy", accuracy);
  out.set("ok_run_frac", static_cast<double>(out.attempted - out.failed) /
                             static_cast<double>(out.attempted));
  out.as_measured = {{"rounds_per_s", timed.rounds_per_s(false)},
                     {"cells_per_s", timed.cells_per_s(false)},
                     {"cpu_s_per_kround", timed.cpu_s_per_kround(false)},
                     {"setup_s", setup.wall_s(false)},
                     {"host_speed", timed.speed()}};
}

// ---- per-layer metrics -----------------------------------------------------

/// Every per-layer metric, in BENCHMARK.json order.  A layer a workload
/// does not call reads 0.
std::vector<std::string> per_layer_names() {
  std::vector<std::string> names = {
      "data.sample_ns",
      "models.loss_ns",
      "models.gradient_ns",
      "models.clip_ns",
      "models.eval_ms",
      "dp.noise_ns",
      "dp.noise_ns_per_coord",
      "attacks.forge_ns",
      "aggregation.aggregate_ns",
      "aggregation.round_share",
      "core.apply_ns",
      "core.round_ns",
      "core.fill_share",
      "core.allocs_per_round",
      "core.pipeline.fill_wait_frac",
      "core.pipeline.fill_busy_frac",
      "core.pipeline.overlap_frac",
      "core.membership.renegotiate_ms",
      "core.reputation.observe_ns",
      "net.frames_per_round",
      "net.bytes_per_round",
      "net.retransmit_frac",
      "net.rows_substituted",
      "net.encode_ns_per_row",
      "net.decode_ns_per_row",
      "privacy.mi_ms",
      "privacy.inversion_ms",
      "campaign.cell_s",
      "campaign.persist_ms",
      "campaign.pool_idle_frac",
      "trace.overhead_frac",
      "trace.unattributed_frac",
      "trace.top_layer_share"};
  for (const std::string& layer : layers()) names.push_back(layer + ".self_share");
  return names;
}

class LayerMetrics {
 public:
  LayerMetrics() {
    for (const std::string& name : per_layer_names()) values_[name] = 0.0;
  }
  void set(const std::string& name, double v) {
    if (!values_.count(name)) throw std::logic_error("unknown per-layer metric " + name);
    values_[name] = v;
  }
  /// The round-level metrics of the re-composed round.
  void set_rounds(const SpanStats& s, size_t dim) {
    set("data.sample_ns", s.median_ns(kSample));
    set("models.loss_ns", s.median_ns(kLoss));
    set("models.gradient_ns", s.median_ns(kGradient));
    set("models.clip_ns", s.median_ns(kClip));
    set("models.eval_ms", s.median_ns(kEval) * 1e-6);
    set("dp.noise_ns", s.median_ns(kNoise));
    set("dp.noise_ns_per_coord", s.median_ns(kNoise) / static_cast<double>(dim));
    set("attacks.forge_ns", s.median_ns(kForge));
    set("aggregation.aggregate_ns", s.median_ns(kAggregate));
    set("aggregation.round_share", s.total_ns(kAggregate) / s.round_ns);
    set("core.apply_ns", s.median_ns(kApply));
    set("core.round_ns", s.median_ns(kRound));
    set("core.fill_share", s.total_ns(kFill) / s.round_ns);
    set("trace.unattributed_frac", s.unattributed_ns / s.round_ns);
  }
  /// Layer self-time shares over `total_ns`; returns the top layer.
  std::string set_self_shares(const SpanStats& s, double total_ns) {
    const std::vector<double> self = s.layer_self_ns();
    size_t top = 0;
    for (size_t l = 0; l < self.size(); ++l) {
      set(layers()[l] + ".self_share", self[l] / total_ns);
      if (self[l] > self[top]) top = l;
    }
    set("trace.top_layer_share", self[top] / total_ns);
    return layers()[top];
  }
  void emit(Outcome& out) const {
    for (const std::string& name : per_layer_names()) out.set(name, values_.at(name));
  }

 private:
  std::map<std::string, double> values_;
};

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "[\"" << span_name(static_cast<SpanName>(s.name))
       << "\"," << s.parent << "," << s.round << "," << s.start_ns << ","
       << s.end_ns << "]";
  }
  os << "]";
}

/// Spans kept in memory during the run, written once at the end:
/// [name, parent index, round, start ns, end ns] per span.
void write_trace_file(const Options& o, const std::vector<Span>& round_spans,
                      const std::vector<Span>& cell_spans, const std::string& top_layer,
                      const std::vector<double>& layer_self) {
  fs::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::ofstream os(path);
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"top_layer\": \"" << top_layer << "\", \"layer_self_ns\": {";
  for (size_t l = 0; l < layers().size(); ++l)
    os << (l ? ", " : "") << "\"" << layers()[l] << "\": " << number(layer_self[l]);
  os << "},\n\"round_spans\": ";
  write_spans(os, round_spans);
  os << ",\n\"cell_spans\": ";
  write_spans(os, cell_spans);
  os << "}\n";
  std::fprintf(stderr, "roundbench: spans written to %s\n", path.c_str());
}

// ---- single-run workloads ---------------------------------------------------

/// The data and model one training run reads; owns them.
struct Task {
  std::unique_ptr<PhishingExperiment> phishing;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<LinearModel> linear;
  const Model* model = nullptr;
  const Dataset* train = nullptr;
  const Dataset* test = nullptr;
};

Task phishing_task(uint64_t data_seed) {
  Task t;
  t.phishing = std::make_unique<PhishingExperiment>(data_seed);
  t.model = &t.phishing->model();
  t.train = &t.phishing->train();
  t.test = &t.phishing->test();
  return t;
}

Task blobs_task(uint64_t data_seed, size_t features, size_t samples) {
  Task t;
  BlobsConfig bc;
  bc.num_samples = samples;
  bc.num_features = features;
  bc.separation = 4.0;
  t.data = std::make_unique<Dataset>(make_blobs(bc, data_seed));
  t.linear = std::make_unique<LinearModel>(features, LinearLoss::kMseOnSigmoid);
  t.model = t.linear.get();
  t.train = t.data.get();
  t.test = t.data.get();  // blobs have no held-out split
  return t;
}

RunResult train(const ExperimentConfig& c, const Task& task) {
  return Trainer(c, *task.model, *task.train, *task.test).run();
}

/// Seed-by-seed rerun check: the first run of a seed is kept, every
/// later run of it must match bit for bit.
class RerunCheck {
 public:
  explicit RerunCheck(size_t seeds) : first_(seeds) {}
  void check(size_t s, const RunResult& r, Outcome& out) {
    if (!all_finite(r.final_parameters) || !std::isfinite(r.final_accuracy)) {
      out.fail("run seed slot " + std::to_string(s) + ": non-finite parameters");
      return;
    }
    if (!first_[s]) {
      first_[s] = r;
      return;
    }
    if (!bitwise_equal(first_[s]->final_parameters, r.final_parameters) ||
        !bitwise_equal(first_[s]->train_loss, r.train_loss))
      out.fail("run seed slot " + std::to_string(s) + ": rerun is not bit-identical");
  }
  double mean_accuracy() const {
    std::vector<double> acc;
    for (const auto& r : first_)
      if (r) acc.push_back(r->final_accuracy);
    return mean(acc);
  }

 private:
  std::vector<std::optional<RunResult>> first_;
};

struct SingleRun {
  ExperimentConfig config;  ///< the workload's own config (seed overwritten)
  std::function<Task()> make_task;
  size_t busy_threads = 1;  ///< threads a run keeps busy
};

Outcome time_single_run(const Options& o, const SingleRun& w) {
  Outcome out;
  // Set-up: build the data, the model and the trainer, several times.
  PairedTimer setup(1);
  Task task;
  for (size_t r = 0; r < kSetupReps; ++r) {
    Task fresh;
    setup.run(
        [&] {
          fresh = w.make_task();
          ExperimentConfig c = w.config;
          c.validate();
          const Trainer probe(c, *fresh.model, *fresh.train, *fresh.test);
        },
        0, 0);
    task = std::move(fresh);  // frees the previous set-up outside the timing
  }

  std::vector<uint64_t> seeds(kRunSeeds);
  for (size_t s = 0; s < kRunSeeds; ++s) seeds[s] = derive(o.seed, kRunSalt, s);
  RerunCheck reruns(kRunSeeds);
  PairedTimer timed(w.busy_threads);
  const int64_t phase = now_ns();
  for (size_t i = 0; seconds_since(phase) < o.seconds || i < kRunSeeds; ++i) {
    ExperimentConfig c = w.config;
    c.seed = seeds[i % kRunSeeds];
    RunResult r;
    timed.run([&] { r = train(c, task); }, c.steps, 1);
    ++out.attempted;
    reruns.check(i % kRunSeeds, r, out);
  }
  out.repetitions = timed.count();
  // Seeds the timed phase ran only once get their rerun check untimed.
  for (size_t s = 0; s < kRunSeeds; ++s)
    if (out.repetitions < kRunSeeds + s + 1) {
      ExperimentConfig c = w.config;
      c.seed = seeds[s];
      ++out.attempted;
      reruns.check(s, train(c, task), out);
    }
  timed.log("run");
  set_end_to_end(out, timed, setup, reruns.mean_accuracy());
  return out;
}

Outcome trace_single_run(const Options& o, const SingleRun& w) {
  Outcome out;
  const Task task = w.make_task();
  // The re-composed round is depth 0 and serial; threads never change a
  // trajectory, so the serial depth-0 program is both the bit-identity
  // reference and the like-for-like untraced wall time.
  ExperimentConfig sync = w.config;
  sync.pipeline_depth = 0;
  sync.threads = 1;

  SpanStats stats;
  Tracer tracer;
  std::vector<Span> first_spans;
  std::vector<double> traced_s, untraced_s, allocs, wait_frac, busy_frac, overlap;
  const int64_t phase = now_ns();
  for (size_t i = 0; seconds_since(phase) < o.seconds || i < 2; ++i) {
    ExperimentConfig c = w.config;
    c.seed = sync.seed = derive(o.seed, kRunSalt, i % kRunSeeds);
    // Untraced program at the workload's own config: the ring's phases.
    int64_t t0 = now_ns();
    const RunResult own = train(c, task);
    double own_s = seconds_since(t0);
    wait_frac.push_back(own.phase.fill / own_s);
    busy_frac.push_back(own.phase.fill_busy / own_s);
    overlap.push_back(own.phase.fill_busy > 0
                          ? std::max(0.0, own.phase.fill_busy - own.phase.fill) /
                                own.phase.fill_busy
                          : 0.0);
    // The depth-0 program the re-composition must reproduce.
    RunResult reference = own;
    if (c.pipeline_depth != 0 || c.threads != 1) {
      t0 = now_ns();
      reference = train(sync, task);
      own_s = seconds_since(t0);
    }
    untraced_s.push_back(own_s);

    tracer.clear();
    const ComposedRun composed = compose_run(sync, *task.model, *task.train,
                                             *task.test, tracer);
    ++out.attempted;
    traced_s.push_back(composed.wall_s);
    allocs.push_back(composed.allocs_per_round);
    if (!bitwise_equal(composed.final_parameters, reference.final_parameters) ||
        !bitwise_equal(composed.train_loss, reference.train_loss))
      out.fail("seed " + std::to_string(sync.seed) +
               ": traced re-composition differs from Trainer::run");
    else if (composed.allocs_per_round != 0.0)
      out.fail("seed " + std::to_string(sync.seed) + ": " +
               number(composed.allocs_per_round) + " allocations per steady-state round");
    stats.fold(tracer.spans());
    if (first_spans.empty()) first_spans = tracer.spans();
  }
  out.repetitions = traced_s.size();

  LayerMetrics m;
  m.set_rounds(stats, task.model->dim());
  m.set("core.allocs_per_round", median(allocs));
  m.set("core.pipeline.fill_wait_frac", median(wait_frac));
  m.set("core.pipeline.fill_busy_frac", median(busy_frac));
  m.set("core.pipeline.overlap_frac", median(overlap));
  m.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0);
  out.top_layer = m.set_self_shares(stats, stats.round_ns);
  m.emit(out);
  write_trace_file(o, first_spans, {}, out.top_layer, stats.layer_self_ns());
  return out;
}

// ---- campaign ----------------------------------------------------------------

campaign::GridSpec campaign_spec(const Options& o) {
  campaign::GridSpec spec;
  ExperimentConfig& b = spec.base;
  b.num_workers = 25;
  b.num_byzantine = 2;
  b.steps = o.smoke ? 10 : 100;
  b.eval_every = o.smoke ? 5 : 50;
  b.attack_observes = "wire";
  // Up to 8 resends per missing chunk: a row is zero-substituted only
  // after 9 losses in a row (~1e-11 per row at these fault rates).  At
  // the default 2, about one seed in ten lost a row in an epoch whose
  // renegotiated tree budget is merge_f = 0, and the cell ends early as
  // an "error:" row: the timed work would then depend on the seed.
  b.channel_retransmit = 8;
  b.channel_seed = derive(o.seed, kChannelSalt);
  b.churn_seed = derive(o.seed, kChurnSalt);
  spec.data_seed = derive(o.seed, kDataSalt);
  spec.seeds = 1;
  if (o.smoke) {
    // Two cells that still reach every layer: the tree's lossy wire and
    // one membership-epoch cell.
    spec.gars = {"mda"};
    spec.attacks = {"adaptive_alie"};
    spec.dp_eps = {0.2};
    spec.topologies = {"tree:1x3"};
    spec.channels = {"lossy:0.05x0.01x0.1"};
    spec.churn = {"off", "epoch:5x0.5x0.1"};
  } else {
    spec.gars = {"mda", "median"};
    spec.attacks = {"little:1.5", "adaptive_alie"};
    spec.dp_eps = {0.0, 0.2};
    spec.topologies = {"flat", "tree:1x3"};
    spec.channels = {"off", "lossy:0.05x0.01x0.1"};
    // Join-only churn: joiners are quarantined, audited, admitted and the
    // budget renegotiated at every boundary, while f_e = floor(h_e f / h_0)
    // stays at f, so a pass's work does not swing with the seed.  With
    // leaves, one leave takes h_e to 22 and f_e to 1 (MDA then scans
    // C(23, 1) = 23 subsets instead of C(25, 2) = 300), and at leave
    // probability 0.1 seed 7 shrank
    // the roster to 10 by epoch 2, where f_e = 0 is inadmissible for MDA
    // and the cell ends as an "error:" row.
    spec.churn = {"off", "epoch:25x0.5x0"};
  }
  return spec;
}

/// The cell whose rounds the traced run re-composes: flat MDA under the
/// adaptive attack with DP, materialized through expand_grid like every
/// grid cell.
ExperimentConfig composed_cell_config(const campaign::GridSpec& spec) {
  campaign::GridSpec one = spec;
  one.gars = {"mda"};
  one.attacks = {"adaptive_alie"};
  one.dp_eps = {0.2};
  one.topologies = {"flat"};
  one.channels = {"off"};
  one.churn = {"off"};
  const std::vector<campaign::GridCell> cells = campaign::expand_grid(one);
  if (cells.size() != 1 || !cells[0].admissible())
    throw std::logic_error("composed campaign cell is not admissible");
  ExperimentConfig c = cells[0].config;
  c.seed = 1;  // run_seeds_parallel runs seeds 1..spec.seeds
  return c;
}

/// run_campaign's row for a cell before it runs (same fields as the
/// runner's own).
campaign::CellArtifact base_artifact(const campaign::GridCell& cell,
                                     const campaign::GridSpec& spec) {
  campaign::CellArtifact a;
  a.cell = cell.index;
  a.id = cell.id;
  a.gar = cell.gar;
  a.attack = cell.attack;
  a.eps = cell.eps;
  a.participation = cell.participation;
  a.topology = cell.topology;
  a.channel = cell.channel;
  a.churn = cell.churn;
  a.prune = cell.prune;
  a.fast_math = cell.fast_math;
  a.seeds = spec.seeds;
  a.skip_reason = cell.skip_reason;
  const double nan = std::nan("");
  a.final_acc_mean = a.final_acc_std = nan;
  a.final_loss_mean = a.final_loss_std = nan;
  a.min_loss_mean = nan;
  a.mi_auc = a.inv_rel_error = a.inv_label_acc = nan;
  return a;
}

struct CampaignFiles {
  std::string manifest, csv, json;
  bool operator==(const CampaignFiles&) const = default;
};

CampaignFiles read_campaign(const std::string& dir) {
  return {read_file(dir + "/manifest.csv"), read_file(dir + "/campaign.csv"),
          read_file(dir + "/campaign.json")};
}

/// Checks one finished campaign; returns the admissible cell count.
size_t check_report(const campaign::CampaignReport& report, Outcome& out) {
  size_t admissible = 0;
  if (!report.complete) out.fail("campaign did not complete");
  for (const campaign::CellArtifact& a : report.cells) {
    if (a.skip_reason.rfind("error:", 0) == 0) {
      out.fail("cell " + a.id + " failed: " + a.skip_reason);
      ++admissible;
    } else if (a.skip_reason.empty()) {
      ++admissible;
      if (!std::isfinite(a.final_acc_mean) || !std::isfinite(a.final_loss_mean))
        out.fail("cell " + a.id + ": non-finite metrics");
    }
  }
  return admissible;
}

Outcome time_campaign(const Options& o) {
  Outcome out;
  const campaign::GridSpec spec = campaign_spec(o);
  PairedTimer setup(1);
  for (size_t r = 0; r < kSetupReps; ++r)
    setup.run(
        [&] {
          const PhishingExperiment exp(spec.data_seed);
          const std::vector<campaign::GridCell> cells = campaign::expand_grid(spec);
        },
        0, 0);

  campaign::CampaignOptions options;
  options.threads = kCellThreads;
  options.out_dir = o.out_dir + "/campaign-" + std::to_string(o.seed);
  std::optional<CampaignFiles> first;
  double accuracy = 0.0;
  const std::vector<campaign::GridCell> grid = campaign::expand_grid(spec);
  const auto admissible = static_cast<size_t>(std::count_if(
      grid.begin(), grid.end(), [](const campaign::GridCell& c) { return c.admissible(); }));
  PairedTimer timed(kCellThreads);
  const int64_t phase = now_ns();
  // At least two passes, so every cell is rerun and compared.
  for (size_t pass = 0; seconds_since(phase) < o.seconds || pass < 2; ++pass) {
    fs::remove_all(options.out_dir);  // a fresh campaign, not a resume
    campaign::CampaignReport report;
    timed.run([&] { report = campaign::run_campaign(spec, options); },
              admissible * spec.seeds * spec.base.steps, admissible);
    out.attempted += check_report(report, out);
    const CampaignFiles files = read_campaign(options.out_dir);
    if (!first) {
      first = files;
      std::vector<double> acc;
      for (const campaign::CellArtifact& a : report.cells)
        if (a.skip_reason.empty()) acc.push_back(a.final_acc_mean);
      accuracy = mean(acc);
    } else if (!(files == *first)) {
      out.fail("campaign pass " + std::to_string(pass) +
               ": artifacts differ from the first pass");
    }
  }
  out.repetitions = timed.count();
  timed.log("pass");
  set_end_to_end(out, timed, setup, accuracy);
  return out;
}

/// What the traced campaign pass keeps from each cell's training runs.
struct CellRuns {
  net::ChannelStats channel;
  size_t rounds = 0;
  std::optional<RunResult> seed1;  ///< kept for churn cells only
};

/// run_campaign re-composed from public calls, one span per call.
struct TracedPass {
  double wall_s = 0.0;
  double pool_idle_frac = 0.0;
  std::vector<CellRuns> runs;  ///< by cell index
};

TracedPass traced_campaign_pass(const campaign::GridSpec& spec,
                                const campaign::CampaignOptions& options,
                                Tracer& tracer) {
  TracedPass pass;
  const int64_t pass_start = now_ns();
  const int32_t pass_span = tracer.add(kPass, -1, 0, pass_start, 0);

  int64_t t0 = now_ns();
  const std::vector<campaign::GridCell> cells = campaign::expand_grid(spec);
  const PhishingExperiment exp(spec.data_seed);
  campaign::Manifest manifest;
  manifest.signature = spec.signature();
  const std::string manifest_path = options.out_dir + "/manifest.csv";
  std::vector<const campaign::GridCell*> pending;
  for (const campaign::GridCell& cell : cells)
    if (cell.admissible() && !cell.fast_math) pending.push_back(&cell);
  if (pending.size() != static_cast<size_t>(std::count_if(
                            cells.begin(), cells.end(),
                            [](const auto& c) { return c.admissible(); })))
    throw std::logic_error("traced campaign pass: fast_math cells are not re-composed");
  pass.runs.resize(cells.size());
  tracer.add(kSetup, pass_span, 0, t0, now_ns());

  std::mutex mutex;  // guards manifest, tracer and pass.runs
  const int64_t parallel_start = now_ns();
  double busy_ns = 0.0;
  parallel_map(
      pending.size(),
      [&](size_t i) {
        const campaign::GridCell& cell = *pending[i];
        const int64_t cell_start = now_ns();
        campaign::CellArtifact a = base_artifact(cell, spec);
        int64_t train_end = cell_start, mi_end = cell_start, inv_end = cell_start;
        CellRuns kept;
        std::vector<RunResult> runs;
        try {
          runs = exp.run_seeds_parallel(cell.config, spec.seeds);
          train_end = now_ns();
          const ScalarSummary acc = summarize_final_accuracy(runs);
          const ScalarSummary loss = summarize_final_loss(runs);
          a.final_acc_mean = acc.mean;
          a.final_acc_std = acc.stddev;
          a.final_loss_mean = loss.mean;
          a.final_loss_std = loss.stddev;
          double min_loss_sum = 0.0;
          for (const RunResult& r : runs) min_loss_sum += r.min_train_loss;
          a.min_loss_mean = min_loss_sum / static_cast<double>(runs.size());
          const Vector& w = runs.front().final_parameters;
          const privacy::MembershipReport mi = privacy::membership_inference(
              exp.model(), w, exp.train(), exp.test(), options.privacy_samples);
          mi_end = now_ns();
          a.mi_auc = mi.auc;
          const double stddev =
              make_mechanism(cell.config, exp.model().dim())->noise_stddev();
          const privacy::InversionReport inv = privacy::attack_linear_model(
              exp.train(), w, stddev, options.privacy_samples, /*seed=*/1);
          inv_end = now_ns();
          a.inv_rel_error = inv.mean_relative_error;
          a.inv_label_acc = inv.label_accuracy;
          for (const RunResult& r : runs) {
            kept.channel.accumulate(r.channel);
            kept.rounds += r.train_loss.size();
          }
        } catch (const std::exception& e) {
          a.skip_reason = campaign::sanitize_field(std::string("error: ") + e.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        const int64_t persist_start = now_ns();
        manifest.completed[a.cell] = a;
        campaign::save_manifest(manifest_path, manifest);
        const int64_t cell_end = now_ns();
        const int32_t cell_span = tracer.add(kCell, pass_span, 0, cell_start, cell_end);
        if (train_end > cell_start) tracer.add(kTrain, cell_span, 0, cell_start, train_end);
        if (mi_end > train_end) tracer.add(kMembership, cell_span, 0, train_end, mi_end);
        if (inv_end > mi_end) tracer.add(kInversion, cell_span, 0, mi_end, inv_end);
        tracer.add(kPersist, cell_span, 0, persist_start, cell_end);
        busy_ns += static_cast<double>(cell_end - cell_start);
        if (cell.churn != "off" && !runs.empty()) kept.seed1 = runs.front();
        pass.runs[cell.index] = std::move(kept);
        return 0;
      },
      options.threads);
  const double parallel_ns = static_cast<double>(now_ns() - parallel_start);
  pass.pool_idle_frac =
      1.0 - busy_ns / (static_cast<double>(std::min(options.threads, pending.size())) *
                       parallel_ns);

  t0 = now_ns();
  std::vector<campaign::CellArtifact> table;
  for (const campaign::GridCell& cell : cells) {
    auto it = manifest.completed.find(cell.index);
    table.push_back(it != manifest.completed.end() ? it->second : base_artifact(cell, spec));
  }
  campaign::write_csv(options.out_dir + "/campaign.csv", table);
  campaign::write_json(options.out_dir + "/campaign.json", manifest.signature, table);
  tracer.add(kArtifacts, pass_span, 0, t0, now_ns());
  tracer.close(pass_span);
  const Span& whole = tracer.spans()[static_cast<size_t>(pass_span)];
  pass.wall_s = static_cast<double>(whole.end_ns - whole.start_ns) * 1e-9;
  return pass;
}

/// ParameterServer::renegotiate at the (rows, f) pairs a churn run
/// renegotiated to at its epoch boundaries, replayed `reps` times.
std::vector<double> renegotiate_ms(const ExperimentConfig& c, const Model& model,
                                   const RunResult& run, size_t reps) {
  std::vector<double> out;
  ParameterServer server(make_round_aggregator(c, run.round_rows[0], run.round_f[0]),
                         SgdOptimizer(model.dim(), constant_lr(c.learning_rate), c.momentum),
                         model.initial_parameters());
  for (size_t r = 0; r < reps; ++r)
    for (size_t t = c.churn_epoch_rounds, epoch = 1; t < c.steps;
         t += c.churn_epoch_rounds, ++epoch) {
      const int64_t t0 = now_ns();
      server.renegotiate(c, epoch, run.round_rows[t], run.round_f[t]);
      out.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  return out;
}

/// ReputationBook::observe_round on the composed cell's last round.
std::vector<double> observe_ns(const ExperimentConfig& c, const ComposedRun& run,
                               size_t reps) {
  ExperimentConfig rc = c;
  rc.churn = "epoch";
  ReputationBook book(rc, run.honest_rows);
  std::vector<uint32_t> ids(run.honest_rows);
  for (size_t k = 0; k < ids.size(); ++k) ids[k] = static_cast<uint32_t>(k);
  const GradientBatch no_shadow;
  std::vector<double> out;
  out.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    const int64_t t0 = now_ns();
    book.observe_round(run.last_batch, run.honest_rows, ids, no_shadow, {},
                       run.last_aggregate);
    out.push_back(static_cast<double>(now_ns() - t0));
  }
  return out;
}

/// Raw64 frame encode and decode (+ scatter) per row of `batch`, through
/// the wire layer's public calls; checks each row round-trips exactly.
void frame_ns(const GradientBatch& batch, size_t chunk, size_t reps,
              std::vector<double>& encode, std::vector<double>& decode, Outcome& out) {
  net::FrameEncoder encoder(net::WireMode::kRaw64, chunk);
  net::FrameBuffer frames;
  Vector row_out(batch.dim(), 0.0);
  bool exact = true;
  for (size_t r = 0; r < reps; ++r)
    for (size_t i = 0; i < batch.rows(); ++i) {
      frames.clear();
      const int64_t t0 = now_ns();
      encoder.encode_row(batch.row(i), frames);
      const int64_t t1 = now_ns();
      for (size_t j = 0; j < frames.count(); ++j) {
        net::FrameView view;
        exact &= net::decode_frame(frames.frame(j), view) == net::DecodeStatus::kOk &&
                 net::apply_chunk(view, row_out);
      }
      const int64_t t2 = now_ns();
      encode.push_back(static_cast<double>(t1 - t0));
      decode.push_back(static_cast<double>(t2 - t1));
      exact &= std::memcmp(row_out.data(), batch.row(i).data(),
                           batch.dim() * sizeof(double)) == 0;
    }
  if (!exact) out.fail("raw64 frame round trip is not byte-exact");
}

Outcome trace_campaign(const Options& o) {
  Outcome out;
  const campaign::GridSpec spec = campaign_spec(o);
  campaign::CampaignOptions options;
  options.threads = kCellThreads;
  const std::string root = o.out_dir + "/campaign-" + std::to_string(o.seed);
  const int64_t phase = now_ns();

  // The untraced program and its traced re-composition, twice, in
  // alternating order so neither side always runs cold.
  const std::string reference_dir = root + "-reference", traced_dir = root + "-traced";
  std::vector<double> reference_s, traced_s, pool_idle;
  Tracer cell_tracer;
  std::optional<TracedPass> traced;
  auto run_reference = [&] {
    options.out_dir = reference_dir;
    fs::remove_all(options.out_dir);
    const int64_t start = now_ns();
    const campaign::CampaignReport report = campaign::run_campaign(spec, options);
    reference_s.push_back(seconds_since(start));
    out.attempted += check_report(report, out);
  };
  auto run_traced = [&] {
    options.out_dir = traced_dir;
    fs::remove_all(options.out_dir);
    TracedPass pass = traced_campaign_pass(spec, options, cell_tracer);
    traced_s.push_back(pass.wall_s);
    pool_idle.push_back(pass.pool_idle_frac);
    if (!traced) traced = std::move(pass);
  };
  for (size_t k = 0; k < 2; ++k) {
    if (k == 0) {
      run_reference();
      run_traced();
    } else {
      run_traced();
      run_reference();
    }
    if (!(read_campaign(traced_dir) == read_campaign(reference_dir)))
      out.fail("traced campaign artifacts differ from run_campaign's");
  }

  // The flat adaptive_alie + DP cell, round by round.
  const ExperimentConfig cell = composed_cell_config(spec);
  const PhishingExperiment exp(spec.data_seed);
  SpanStats rounds;
  Tracer tracer;
  std::vector<Span> first_spans;
  std::vector<double> allocs, wait_frac, busy_frac;
  std::optional<ComposedRun> composed;
  for (size_t i = 0; seconds_since(phase) < o.seconds || i < 2; ++i) {
    const int64_t t0 = now_ns();
    const RunResult reference = exp.run(cell);
    const double own_s = seconds_since(t0);
    wait_frac.push_back(reference.phase.fill / own_s);
    busy_frac.push_back(reference.phase.fill_busy / own_s);
    tracer.clear();
    composed = compose_run(cell, exp.model(), exp.train(), exp.test(), tracer);
    ++out.attempted;
    allocs.push_back(composed->allocs_per_round);
    if (!bitwise_equal(composed->final_parameters, reference.final_parameters) ||
        !bitwise_equal(composed->train_loss, reference.train_loss))
      out.fail("composed campaign cell differs from Trainer::run");
    rounds.fold(tracer.spans());
    if (first_spans.empty()) first_spans = tracer.spans();
  }
  out.repetitions = allocs.size();

  LayerMetrics m;
  m.set_rounds(rounds, exp.model().dim());
  m.set("core.allocs_per_round", median(allocs));
  m.set("core.pipeline.fill_wait_frac", median(wait_frac));
  m.set("core.pipeline.fill_busy_frac", median(busy_frac));

  // Layers the composed flat cell does not call, probed through their
  // public entry points on the same shapes.
  const size_t reps = o.smoke ? 20 : 400;
  m.set("core.reputation.observe_ns", median(observe_ns(cell, *composed, reps)));
  std::vector<double> encode, decode;
  frame_ns(composed->last_batch, cell.wire_chunk, reps, encode, decode, out);
  m.set("net.encode_ns_per_row", median(encode));
  m.set("net.decode_ns_per_row", median(decode));
  // Renegotiation replayed from the lowest-index churn cell.
  const std::vector<campaign::GridCell> grid = campaign::expand_grid(spec);
  for (size_t c = 0; c < traced->runs.size(); ++c)
    if (traced->runs[c].seed1) {
      m.set("core.membership.renegotiate_ms",
            median(renegotiate_ms(grid[c].config, exp.model(), *traced->runs[c].seed1,
                                  o.smoke ? 5 : 50)));
      break;
    }

  // The lossy tree cells' wire counters.
  net::ChannelStats wire;
  size_t wire_rounds = 0;
  for (const CellRuns& r : traced->runs)
    if (r.channel.frames_sent > 0) {
      wire.accumulate(r.channel);
      wire_rounds += r.rounds;
    }
  if (wire_rounds > 0) {
    m.set("net.frames_per_round",
          static_cast<double>(wire.frames_sent) / static_cast<double>(wire_rounds));
    m.set("net.bytes_per_round",
          static_cast<double>(wire.bytes_sent) / static_cast<double>(wire_rounds));
    m.set("net.retransmit_frac", static_cast<double>(wire.retransmit_frames) /
                                     static_cast<double>(wire.frames_sent));
    m.set("net.rows_substituted", static_cast<double>(wire.rows_substituted));
  }

  SpanStats cells;
  cells.fold(cell_tracer.spans());
  m.set("privacy.mi_ms", cells.median_ns(kMembership) * 1e-6);
  m.set("privacy.inversion_ms", cells.median_ns(kInversion) * 1e-6);
  m.set("campaign.cell_s", cells.median_ns(kCell) * 1e-9);
  m.set("campaign.persist_ms", cells.median_ns(kPersist) * 1e-6);
  m.set("campaign.pool_idle_frac", median(pool_idle));
  m.set("trace.overhead_frac", median(traced_s) / median(reference_s) - 1.0);
  // Self time over the cell tree: what a pass's threads spent, per layer.
  double busy = 0.0;
  for (double v : cells.layer_self_ns()) busy += v;
  out.top_layer = m.set_self_shares(cells, busy);
  m.emit(out);
  write_trace_file(o, first_spans, cell_tracer.spans(), out.top_layer,
                   cells.layer_self_ns());
  return out;
}

SingleRun paper_phishing_run(const Options& o) {
  // The paper's Fig. 2 line (§5.1): phishing, d = 69, n = 11, f = 5, MDA,
  // b = 50, (0.2, 1e-6)-DP, "a little is enough", T = 1000.
  ExperimentConfig c = ExperimentConfig::paper_baseline().with_dp(0.2).with_attack("little");
  c.threads = 1;
  c.pipeline_depth = 0;
  if (o.smoke) {
    c.steps = 20;
    c.eval_every = 10;
  }
  const uint64_t data_seed = derive(o.seed, kDataSalt);
  return {c, [data_seed] { return phishing_task(data_seed); }, 1};
}

SingleRun wide_ring_run(const Options& o) {
  // d = 10^4 blobs, n = 50, f = 2, MDA, b = 10, no DP, no attack, on the
  // double-buffered ring with a two-thread fill.
  ExperimentConfig c;
  c.num_workers = 50;
  c.num_byzantine = 2;
  c.gar = "mda";
  c.batch_size = 10;
  c.steps = o.smoke ? 4 : 40;
  c.eval_every = c.steps;
  c.pipeline_depth = 1;
  c.threads = 2;
  const size_t features = o.smoke ? 999 : 9999;
  const uint64_t data_seed = derive(o.seed, kDataSalt);
  // Aggregating main thread, fill thread, one pool worker.
  return {c, [data_seed, features] { return blobs_task(data_seed, features, 256); }, 3};
}

}  // namespace

Outcome paper_phishing(const Options& o) {
  const SingleRun w = paper_phishing_run(o);
  return o.trace ? trace_single_run(o, w) : time_single_run(o, w);
}

Outcome wide_ring(const Options& o) {
  const SingleRun w = wide_ring_run(o);
  return o.trace ? trace_single_run(o, w) : time_single_run(o, w);
}

Outcome campaign_grid(const Options& o) {
  return o.trace ? trace_campaign(o) : time_campaign(o);
}

}  // namespace roundbench
