// config.hpp — one experiment = one ExperimentConfig.
//
// Defaults reproduce the paper's §5.1 setup exactly:
//   n = 11 workers, f = 5 Byzantine, GAR = MDA, T = 1000 steps,
//   learning rate 2, momentum 0.99, clip G_max = 1e-2, delta = 1e-6,
//   eps = 0.2, batch size 50, accuracy evaluated every 50 steps,
//   seeds 1..5.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace dpbyz {

/// Maximum round-engine ring depth (ExperimentConfig::pipeline_depth).
/// The engine keeps depth + 1 arenas of n x d doubles alive, so the cap
/// is a memory guard, not an algorithmic limit.
inline constexpr size_t kMaxPipelineDepth = 8;

struct ExperimentConfig {
  // --- topology -----------------------------------------------------------
  size_t num_workers = 11;    ///< n
  size_t num_byzantine = 5;   ///< f (upper bound; actual attackers when enabled)

  // --- SGD ----------------------------------------------------------------
  size_t batch_size = 50;     ///< b
  size_t steps = 1000;        ///< T
  double learning_rate = 2.0; ///< eta (constant schedule)
  /// "constant" (the experiments' fixed eta) or "theorem1" (the decaying
  /// gamma_t = 1/(lambda (1 - sin alpha) t) schedule of Theorem 1; uses
  /// `learning_rate` as 1/(lambda (1 - sin alpha))).
  std::string lr_schedule = "constant";
  double momentum = 0.99;     ///< heavy-ball factor at the server
  double clip_norm = 1e-2;    ///< G_max; clip before noise (Assumption 1)
  /// When false, workers skip the clipping step but the DP mechanism is
  /// still calibrated to clip_norm as the *assumed* gradient bound.  This
  /// mirrors the paper's Theorem 1 analysis, which takes Assumption 1
  /// (||grad Q|| <= G_max) as given rather than enforcing it: on the
  /// strongly-convex quadratic the clipped dynamics would confound the
  /// rate measurement (the gamma_1 = 1 noise kick exceeds any practical
  /// G_max).  Leave true for the classification experiments.
  bool clip_enabled = true;
  size_t eval_every = 50;     ///< test-accuracy cadence (paper: every 50 steps)
  /// Probability that an honest worker's gradient is not received in a
  /// round; the server then "considers any non-received gradient to be 0"
  /// (paper §2.1).  Models network asynchrony / silent workers.
  double dropout_prob = 0.0;
  /// Worker-side exponential gradient averaging factor (the variance-
  /// reduction direction of §7, cf. distributed momentum [16]): each
  /// honest worker sends m_t = worker_momentum * m_{t-1} + clip(g_t),
  /// noised as usual.  The per-step sensitivity w.r.t. the current batch
  /// is unchanged (2 G_max / b), so the DP calibration stays valid.
  double worker_momentum = 0.0;
  /// How training data is distributed across workers (federated-learning
  /// extension; the paper's model is "shared" = every worker samples the
  /// same distribution, §2.1):
  ///   "shared"     — all workers sample the full training set (default)
  ///   "iid"        — random equal shards, one per worker
  ///   "contiguous" — equal shards in dataset order
  ///   "label-skew" — each worker's shard is dominated by one class
  ///                  (a 0.8 majority share, best effort)
  std::string data_partition = "shared";
  /// Thread budget for one training step: honest-worker submission runs
  /// one pipeline per thread on the process-wide ThreadPool, and the
  /// hierarchical tree (tree_levels >= 1) dispatches its top-level child
  /// tasks at the same width.  1 (the default) keeps every step on the
  /// calling thread — the paper's serial loop, bit-identical to the
  /// seed; 0 picks the hardware concurrency.  Any value yields
  /// bit-identical results to serial (workers own disjoint arena rows and
  /// independent RNG streams; losses are reduced in index order after the
  /// join) — the knob only changes wall-clock, which is why it is safe to
  /// flip on existing experiments.
  size_t threads = 1;
  /// Round-engine ring depth k (see docs/ARCHITECTURE.md, "Round
  /// pipeline").  The engine owns a ring of k + 1 {arena, θ-snapshot}
  /// slots and keeps up to k fills in flight ahead of the round being
  /// aggregated — bounded-staleness-k SGD: round t's gradients are
  /// computed at θ_{max(0, t-1-k)}.
  ///   0 — the paper's synchronous loop: every round blocks on all
  ///       submissions before the GAR runs.  Bit-identical to the
  ///       pre-pipeline trainer (golden-tested).
  ///   1 — the classic double buffer: while the server aggregates round
  ///       t, the fill of round t+1 (honest pipelines + attack forgery)
  ///       already runs against the stale parameters θ_{t-1} on the
  ///       dedicated fill thread.
  ///   k — k rounds of fill run ahead; an aggregation stall of up to k
  ///       rounds never blocks the fill agent.  Every depth's trajectory
  ///       is fully deterministic given (config, seed) and bit-identical
  ///       across `threads` settings (rounds fill in order on one agent;
  ///       only wall-clock changes with k).  Range: [0, kMaxPipelineDepth].
  size_t pipeline_depth = 0;
  /// Must be "off" (validate() refuses anything else).  Late workers are
  /// modelled by participation = "stragglers"; the field stays because
  /// roundbench/src/compose.cpp's scope check still reads it.
  std::string straggler_policy = "off";
  /// Opt-in fast math kernels for the single-vector reductions: dot,
  /// norm and single-pair distances (CGE norms, Weiszfeld, clipping,
  /// momentum axpy — see docs/ARCHITECTURE.md, "Math kernels").  The
  /// pairwise distance matrix behind Krum/MDA/Bulyan is bit-identical to
  /// the seed and equally fast in both settings, so it is not affected.
  ///   false — the seed's single-accumulator scalar loops: bit-identical
  ///           to every golden-pinned trajectory (default).
  ///   true  — multi-accumulator / AVX2 kernels: reductions reassociate,
  ///           so results differ from scalar by a documented ULP bound
  ///           (2*d*eps relative for the nonnegative reductions) but are
  ///           fully deterministic per (binary, config, seed) and
  ///           bit-identical across `threads` widths.  The trainer
  ///           holds the process in fast mode for the run's duration
  ///           (scope-counted, so overlapping runs from
  ///           run_seeds_parallel compose); concurrently running a
  ///           fast_math run and a non-fast_math run in one process is
  ///           unsupported — the scalar run would observe the fast
  ///           kernels while the fast run lives.
  bool fast_math = false;
  /// Which workers deliver a gradient each round (the round engine's
  /// per-round participation; distinct from `dropout_prob`, which keeps
  /// the §2.1 zero-substitution convention for *delivered-but-lost*
  /// gradients).  Non-participating workers are excluded from the round
  /// entirely: live rows are compacted to the batch prefix in worker-
  /// index order and the GAR runs on the (n', f) round — revalidated
  /// against the rule's admissibility every round, throwing when a
  /// round's n' is inadmissible.  Byzantine workers always deliver.
  ///   "full"       — every worker, every round (default)
  ///   "iid"        — each honest worker delivers independently with
  ///                  probability `participation_prob` per round
  ///   "stragglers" — the last `num_stragglers` honest workers only beat
  ///                  the round timeout every `straggler_period`-th round
  std::string participation = "full";
  double participation_prob = 0.9;  ///< per-round delivery prob for "iid"
  size_t num_stragglers = 0;        ///< fixed straggler count for "stragglers"
  /// Stragglers deliver on rounds t with t % straggler_period == 0 (they
  /// time out on every other round).  1 means they always deliver.
  size_t straggler_period = 2;

  // --- privacy -------------------------------------------------------------
  bool dp_enabled = false;
  std::string mechanism = "gaussian";  ///< "gaussian" | "laplace"
  double epsilon = 0.2;  ///< per-step eps
  double delta = 1e-6;   ///< per-step delta (Gaussian mechanism only)

  // --- robustness ----------------------------------------------------------
  std::string gar = "mda";
  /// Pairwise distances for the selection GARs (krum, multi-krum, mda,
  /// bulyan — see docs/ARCHITECTURE.md, "Approximate distances").
  ///   "off"    — the full O(n²·d) exact pairwise matrix (default;
  ///              byte-for-byte the golden-pinned code path).
  ///   "approx" — Johnson–Lindenstrauss sketch distances replace the
  ///              exact matrix outright: O(n·d·k + n²·k) instead of
  ///              O(n²·d), deterministic, but selections may differ (the
  ///              measured disagreement envelope is committed in
  ///              BENCH_gar_scaling.json and docs/AGGREGATORS.md).
  /// Rules that consume no pairwise distances ignore the knob.
  std::string prune = "off";
  /// Per-node merge GAR of the hierarchical tree (tree_levels >= 1),
  /// applied across the B child aggregates at (B, merge_f).  "median" is
  /// admissible whenever B >= 2 merge_f + 1 and is the recommended
  /// default; "mda" is the stronger choice when its (B, merge_f)
  /// constraints hold.
  std::string tree_merge_gar = "median";
  /// Hierarchical aggregation tree depth L (see docs/ARCHITECTURE.md,
  /// "Hierarchical aggregation & wire format").  0 = off: the paper's
  /// flat path, bit-identical.  L >= 1 builds an L-level
  /// HierarchicalAggregator: each node splits its rows into
  /// `tree_branch` contiguous views, aggregates each with `gar` at the
  /// leaves, and merges per node with `tree_merge_gar` at the recursed
  /// worst-case budget (child_f = ceil(f/B), merge_f =
  /// floor(f/(child_f+1)) per level).  L = 1 with B = S is the two-level
  /// S-shard split.  Every stage must be admissible at its derived
  /// (count, f) pair, and tree_branch^tree_levels must not exceed the
  /// round's row count, or aggregator construction throws.
  size_t tree_levels = 0;
  /// Branching factor B per tree node; required >= 1 when tree_levels
  /// >= 1 (and must be 0 when the tree is off).
  size_t tree_branch = 0;
  /// Coordinates per frame on a framed tree edge (channel == "lossy") —
  /// the chunking granularity drop/reorder faults act on.
  size_t wire_chunk = 1024;
  /// The tree's child→parent edges (requires tree_levels >= 1 when on):
  ///   "off"   — in-memory copies (default; no framing)
  ///   "lossy" — every edge is framed (raw64, checksummed, byte-exact)
  ///             and crosses the seeded SimulatedChannel, which drops /
  ///             corrupts / reorders frames per the probabilities below
  ///             (all zero = the ideal framed link).
  ///             Missing chunks are retransmitted up to
  ///             channel_retransmit rounds; an unreassemblable child
  ///             aggregate is zero-substituted against the level's
  ///             merge_f budget (exceeding it throws).  The run stays a
  ///             pure function of (config, seed, channel_seed) and its
  ///             channel counters land in RunResult::channel.
  std::string channel = "off";
  double channel_drop = 0.0;       ///< per-frame drop probability, [0,1]
  double channel_corrupt = 0.0;    ///< per-frame byte-flip probability, [0,1]
  double channel_reorder = 0.0;    ///< per-frame delay/reorder probability, [0,1]
  uint64_t channel_seed = 1;       ///< root of the per-edge fault streams
  size_t channel_retransmit = 2;   ///< extra delivery rounds for missing chunks
  bool attack_enabled = false;
  std::string attack = "little";  ///< "little" | "empire" | auxiliary names
  /// Attack factor nu; NaN = the attack's paper default (1.5 / 1.1).
  double attack_nu = std::nan("");
  /// Knobs of the adaptive adversaries (attack = "adaptive_alie" |
  /// "adaptive_empire" | "adaptive_mimic" | "stale_boost"; ignored by the
  /// fixed attacks — see attacks/adaptive.hpp).  `adapt_probes` is the
  /// number of line-search iterations the per-round ε tuner (or the
  /// mimicry boundary bisection) runs; each iteration costs one
  /// aggregation of a shadow copy of the server's own GAR on the
  /// adversary's observation batch.  `adapt_budget` caps the *total*
  /// shadow-GAR evaluations over the whole run (0 = unlimited); once
  /// exhausted the adversary freezes its last tuned parameter, so the
  /// knob trades adversarial strength for attack-side compute, bit-
  /// deterministically per (config, seed).
  size_t adapt_probes = 8;
  size_t adapt_budget = 0;
  /// What the colluding adversary observes when forging: "clean" = the
  /// pre-noise clipped gradients (the adversary estimates g_t and sigma_t
  /// from its own honest-equivalent computations, as in the original
  /// attack papers [3, 38] — the default, and the variant whose b-sweep
  /// matches the paper's Figures 2-4), or "wire" = the honest submissions
  /// as actually sent (post-DP-noise; gradients travel in the clear per
  /// Remark 1).  With DP off the two coincide.  The "wire" adversary's
  /// sigma estimate absorbs the DP noise, making the forged offset grow
  /// with the noise scale — a strictly stronger attack studied in the
  /// bench_attack_observation ablation.
  std::string attack_observes = "clean";

  // --- elasticity (membership epochs) --------------------------------------
  /// Worker-churn model (see docs/ARCHITECTURE.md, "Membership epochs"):
  ///   "off"   — the paper's fixed committee: the (n, f) pair is a
  ///             construction-time constant and every bit-identity golden
  ///             holds unconditionally (default).
  ///   "epoch" — membership is a first-class epoch model: training is cut
  ///             into epochs of `churn_epoch_rounds` rounds, and at every
  ///             epoch boundary the MembershipManager applies a
  ///             deterministic churn trace drawn from `churn_seed`
  ///             (join/leave/crash events), admits or evicts workers
  ///             through the reputation gate, and renegotiates the round
  ///             budget f_e = min(f0, floor(h_e * f0 / h0)) — the initial
  ///             Byzantine *ratio* is the invariant, never exceeding the
  ///             configured f.  The run is a pure function of
  ///             (config, seed, churn_seed); the applied trace lands in
  ///             RunResult::churn_trace.  Requires data_partition ==
  ///             "shared".
  std::string churn = "off";
  size_t churn_epoch_rounds = 50;  ///< epoch length E in rounds
  uint64_t churn_seed = 1;         ///< root of the churn event stream
  double churn_join_prob = 0.5;    ///< P(one joiner appears) per epoch boundary
  double churn_leave_prob = 0.1;   ///< per active worker per boundary
  double churn_crash_prob = 0.0;   ///< per active worker per boundary
  /// Admission gate for joiners (requires churn == "epoch"):
  ///   "distance" — per-worker EMA of an aggregation-derived inlier
  ///                signal (squared distance to the round's selected
  ///                aggregate vs. the live-roster median — the krum-score
  ///                surrogate; its constants live in
  ///                core/reputation.hpp).  Joiners are quarantined
  ///                (submitting, never aggregated) for one epoch and
  ///                admitted only once their score reaches the admission
  ///                bar; active workers falling below the eviction bar
  ///                are evicted at the next boundary.
  ///   "off"      — joiners are admitted after their quarantine epoch;
  ///                nobody is ever evicted.
  std::string reputation = "distance";
  /// Trainer checkpoint/restore (independent of churn; see
  /// core/checkpoint.hpp).  Non-empty = write an atomic (tmp+rename)
  /// checkpoint of the full trainer state — θ, optimizer momentum, every
  /// RNG stream, membership epoch + reputation — every
  /// `checkpoint_every` rounds, and resume from the file when it already
  /// exists.  Checkpoint rounds are pipeline barriers: the ring drains
  /// before the state is captured, in interrupted and uninterrupted runs
  /// alike, so a kill-and-restore trajectory is bit-identical to an
  /// unbroken one.  Requires
  /// channel == "off" (per-edge channel streams live inside the
  /// aggregators and are not captured).
  std::string checkpoint_path = "";
  size_t checkpoint_every = 0;  ///< rounds between checkpoints (>= 1 when on)

  // --- reproducibility ------------------------------------------------------
  uint64_t seed = 1;  ///< run seed (paper uses 1..5); controls sampling + noise

  /// Throws std::invalid_argument if any field combination is unusable
  /// (e.g. f too large for the chosen GAR is *not* checked here — the GAR
  /// constructor enforces its own admissibility).
  void validate() const;

  /// Compact label like "mda+dp(eps=0.2)+little(b=50,seed=1)" for tables.
  std::string label() const;

  /// The four configurations compared in every figure of the paper.
  /// Baseline (a): no DP, no attack; (b) attack only; (c) DP only;
  /// (d) DP + attack.
  static ExperimentConfig paper_baseline();
  ExperimentConfig with_dp(double eps) const;
  ExperimentConfig with_attack(const std::string& attack_name) const;
  ExperimentConfig with_seed(uint64_t s) const;
  ExperimentConfig with_batch(size_t b) const;
};

}  // namespace dpbyz
