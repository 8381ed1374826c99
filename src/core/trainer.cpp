#include "core/trainer.hpp"

#include <cmath>
#include <sstream>

#include "aggregation/hierarchical.hpp"
#include "attacks/adaptive.hpp"
#include "core/checkpoint.hpp"
#include "core/membership.hpp"
#include "core/pipeline.hpp"
#include "core/reputation.hpp"
#include "data/partition.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "dp/laplace_mechanism.hpp"
#include "math/kernels.hpp"
#include "math/statistics.hpp"
#include "utils/errors.hpp"
#include "utils/stopwatch.hpp"

namespace dpbyz {

namespace {
/// Majority-class share of each worker's shard under data_partition ==
/// "label-skew".
constexpr double kLabelSkewFraction = 0.8;
}  // namespace

std::unique_ptr<NoiseMechanism> make_mechanism(const ExperimentConfig& config, size_t dim) {
  if (!config.dp_enabled) return std::make_unique<NoNoise>();
  if (config.mechanism == "gaussian") {
    return std::make_unique<GaussianMechanism>(GaussianMechanism::for_clipped_gradients(
        config.epsilon, config.delta, config.clip_norm, config.batch_size));
  }
  if (config.mechanism == "laplace") {
    return std::make_unique<LaplaceMechanism>(LaplaceMechanism::for_clipped_gradients(
        config.epsilon, config.clip_norm, config.batch_size, dim));
  }
  throw std::invalid_argument("make_mechanism: unknown mechanism '" + config.mechanism + "'");
}

std::unique_ptr<Aggregator> make_round_aggregator(const ExperimentConfig& config,
                                                  size_t rows, size_t f) {
  const PruneMode prune = parse_prune_mode(config.prune);
  if (config.tree_levels > 0) {
    // A lossy channel frames every edge; channel "off" keeps the
    // in-memory copies.
    const bool framed = config.channel == "lossy";
    net::LinkConfig link;
    if (framed) {
      link.chunk_values = config.wire_chunk;
      link.channel_seed = config.channel_seed;
      link.retransmit_limit = config.channel_retransmit;
      link.channel = {.drop = config.channel_drop,
                      .corrupt = config.channel_corrupt,
                      .reorder = config.channel_reorder};
    }
    return std::make_unique<HierarchicalAggregator>(
        config.gar, config.tree_merge_gar, rows, f,
        config.tree_levels, config.tree_branch, config.threads, prune,
        framed ? &link : nullptr);
  }
  return make_aggregator(config.gar, rows, f, prune);
}

std::unique_ptr<Aggregator> make_round_aggregator(const ExperimentConfig& config,
                                                  size_t rows) {
  return make_round_aggregator(config, rows, config.num_byzantine);
}

Trainer::Trainer(const ExperimentConfig& config, const Model& model, const Dataset& train,
                 const Dataset& test)
    : config_(config), model_(model), train_(train), test_(test) {
  config_.validate();
  require(train_.size() > 0, "Trainer: empty training set");
  mechanism_ = make_mechanism(config_, model_.dim());
  if (config_.attack_enabled)
    // The adaptive adversaries (attacks/adaptive.hpp) shadow the server's
    // own rule, so the spec carries the defense description alongside the
    // probe/budget knobs; the fixed attacks ignore it.
    attack_ = make_attack(config_.attack, config_.attack_nu,
                          AdaptiveSpec{config_.gar, config_.prune,
                                       config_.adapt_probes, config_.adapt_budget});
}

RunResult Trainer::run() {
  // One flag flips every vec:: reduction (CGE and Weiszfeld scoring,
  // clipping, momentum; the pairwise kernel is mode-independent): a
  // fast_math run holds a counted fast scope for
  // its duration — covering the depth-1 fill thread, which the round
  // pipeline joins before this frame unwinds, and composing with the
  // overlapping scopes of sibling run_seeds_parallel runs (kernels.hpp).
  const kernels::MathModeScope math_mode(config_.fast_math
                                             ? kernels::MathMode::kFast
                                             : kernels::MathMode::kScalar);
  const size_t n = config_.num_workers;
  const size_t f = config_.attack_enabled ? config_.num_byzantine : 0;
  const size_t honest_count = n - f;

  Rng root(config_.seed);
  Rng attack_rng = root.derive("attack");
  Rng dropout_rng = root.derive("dropout");

  // Per-worker data: the paper's model shares one training set; the
  // federated extension shards it (see ExperimentConfig::data_partition).
  // Shards are owned here and outlive the workers referencing them.
  const size_t active_honest = config_.attack_enabled ? honest_count : n;
  std::vector<Dataset> shards;
  if (config_.data_partition != "shared") {
    Rng partition_rng = root.derive("partition");
    if (config_.data_partition == "iid")
      shards = partition_iid(train_, active_honest, partition_rng);
    else if (config_.data_partition == "contiguous")
      shards = partition_contiguous(train_, active_honest);
    else
      shards = partition_label_skew(train_, active_honest, kLabelSkewFraction,
                                    partition_rng);
  }

  // Membership epochs (churn == "epoch"): the roster becomes dynamic and
  // the worker vector is sized for the whole pool — the initial roster
  // plus every potential joiner slot — so a join event never constructs
  // worker state (or a fresh RNG stream) mid-run.  The churn event
  // stream derives from churn_seed alone, keeping the trace a pure
  // function of (config, seed, churn_seed).  Churn off leaves
  // pool == active_honest and every construction below byte-identical to
  // the fixed-roster trainer.
  const bool churning = config_.churn == "epoch";
  const size_t pool =
      churning ? MembershipManager::pool_size_for(config_, active_honest) : active_honest;
  std::unique_ptr<MembershipManager> membership;
  ReputationBook reputation;
  if (churning) {
    membership = std::make_unique<MembershipManager>(
        config_, active_honest, Rng(config_.churn_seed).derive("churn"));
    reputation = ReputationBook(config_, pool);
  }

  // Workers: when the attack is disabled all n behave honestly, matching
  // the paper's baseline configurations.  Under churn the tail slots
  // [active_honest, pool) are future joiners (all on the shared training
  // set — churn requires data_partition == "shared").
  std::vector<HonestWorker> honest;
  honest.reserve(pool);
  for (size_t i = 0; i < pool; ++i)
    honest.emplace_back(model_, shards.empty() ? train_ : shards[i], config_.batch_size,
                        config_.clip_norm, *mechanism_,
                        root.derive("worker-" + std::to_string(i)), config_.clip_enabled,
                        config_.worker_momentum);

  const LrSchedule schedule = config_.lr_schedule == "theorem1"
                                  ? theorem1_lr(1.0 / config_.learning_rate, 0.0)
                                  : constant_lr(config_.learning_rate);
  // make_round_aggregator picks the topology: flat at the defaults (the
  // paper path is byte-for-byte the code the golden tests pin — no
  // degenerate wrapper indirection) or the hierarchical tree with its
  // wire/channel link.  config.threads drives the child dispatch width too; nesting inside
  // run_seeds_parallel is safe because the process-wide ThreadPool runs
  // nested jobs serially on the worker they were issued from.
  std::unique_ptr<Aggregator> gar = make_round_aggregator(config_, n);
  ParameterServer server(std::move(gar),
                         SgdOptimizer(model_.dim(), schedule, config_.momentum),
                         model_.initial_parameters());

  RunResult result;
  result.train_loss.reserve(config_.steps);
  result.round_rows.reserve(config_.steps);
  result.round_f.reserve(config_.steps);

  const bool observe_clean =
      config_.attack_enabled && config_.attack_observes == "clean";
  // Every mode runs through the round engine (core/pipeline.hpp): it
  // owns the k+1-slot ring of arenas and every fill-side RNG stream
  // from here on.  At the defaults (depth 0, full participation) its
  // fill executes the seed loop's exact stage order — submit in
  // worker-index order, forge, §2.1 dropout zeroing — on this thread,
  // so the trajectory stays bit-identical to the synchronous trainer
  // (pinned by the PR-3 golden trajectories in tests/test_pipeline.cpp).
  // The server's own (n, f) rule seeds the engine's per-n' cache, so
  // full rounds aggregate through the same instance either way.
  ParticipationSchedule participation(config_, honest.size(),
                                      root.derive("participation"));
  RoundPipeline pipeline(config_, honest, attack_.get(), f, observe_clean,
                         model_.dim(), std::move(attack_rng), std::move(dropout_rng),
                         std::move(participation), &server.gar(), membership.get());

  // Checkpointing (core/checkpoint.hpp).  Checkpoint rounds are ring
  // barriers, so every stream snapshotted below is quiescent when the
  // lambda runs; restore reverses each save exactly, then renegotiates
  // the server's rule to the restored epoch's budget so the resumed
  // rounds aggregate exactly as the uninterrupted run's would.
  const bool checkpointing = !config_.checkpoint_path.empty();
  const std::string signature = checkpointing ? checkpoint_signature(config_) : "";
  auto write_checkpoint = [&](size_t t) {
    TrainerCheckpoint ckpt;
    ckpt.signature = signature;
    ckpt.round = t;
    ckpt.params = server.parameters();
    ckpt.velocity = server.velocity();
    ckpt.worker_blobs.reserve(honest.size());
    for (const HonestWorker& w : honest) {
      std::ostringstream ss;
      w.save_state(ss);
      ckpt.worker_blobs.push_back(std::move(ss).str());
    }
    if (attack_) {
      std::ostringstream ss;
      attack_->save_state(ss);
      ckpt.attack_blob = std::move(ss).str();
    }
    {
      std::ostringstream ss;
      pipeline.save_stream_state(ss);
      ckpt.stream_blob = std::move(ss).str();
    }
    if (membership) {
      std::ostringstream ms;
      membership->save(ms);
      ckpt.membership_blob = std::move(ms).str();
      std::ostringstream rs;
      reputation.save(rs);
      ckpt.reputation_blob = std::move(rs).str();
    }
    ckpt.train_loss = result.train_loss;
    ckpt.round_rows.assign(result.round_rows.begin(), result.round_rows.end());
    ckpt.round_f.assign(result.round_f.begin(), result.round_f.end());
    ckpt.eval = result.eval;
    save_checkpoint(config_.checkpoint_path, ckpt);
  };

  // Epoch-boundary processing after aggregating round t (skipped at the
  // final step — no following round trains under the new roster).  The
  // boundary capped dispatch (RoundPipeline::barrier_cap), so the fill
  // agent is idle here and the roster swap is race-free.  The
  // renegotiated rule replaces the server's own and is adopted into the
  // engine's (n', f) cache for the new epoch's full rounds.
  auto process_boundary = [&](size_t t) {
    if (!membership || t >= config_.steps || !membership->is_boundary(t)) return;
    membership->advance(t, reputation);
    const MembershipView& mv = membership->view();
    const size_t rows_e = mv.active.size() + (f > 0 ? mv.byzantine : 0);
    server.renegotiate(config_, mv.epoch, rows_e, mv.byzantine);
    pipeline.adopt_rule(rows_e, mv.byzantine, &server.gar());
  };

  size_t start_round = 0;
  if (checkpointing) {
    if (std::optional<TrainerCheckpoint> ckpt = load_checkpoint(config_.checkpoint_path)) {
      require(ckpt->signature == signature,
              "Trainer: checkpoint '" + config_.checkpoint_path +
                  "' was written by an incompatible configuration");
      require(ckpt->round >= 1 && ckpt->round <= config_.steps,
              "Trainer: checkpoint round exceeds config.steps");
      // A checkpoint written under a shorter horizon carries fewer
      // joiner slots (pool_size_for depends on steps); the missing tail
      // slots were necessarily unborn at the checkpoint round, so their
      // freshly constructed state is exactly the restored state.
      require(ckpt->worker_blobs.size() <= honest.size(),
              "Trainer: checkpoint worker pool exceeds this run's (steps shrank "
              "below the checkpointed horizon?)");
      require(ckpt->train_loss.size() == ckpt->round &&
                  ckpt->round_rows.size() == ckpt->round &&
                  ckpt->round_f.size() == ckpt->round,
              "Trainer: checkpoint metrics length mismatch");
      server.restore(std::move(ckpt->params), ckpt->velocity);
      for (size_t i = 0; i < ckpt->worker_blobs.size(); ++i) {
        std::istringstream ss(ckpt->worker_blobs[i]);
        honest[i].load_state(ss);
      }
      if (attack_) {
        std::istringstream ss(ckpt->attack_blob);
        attack_->load_state(ss);
      }
      {
        std::istringstream ss(ckpt->stream_blob);
        pipeline.load_stream_state(ss);
      }
      if (membership) {
        std::istringstream ms(ckpt->membership_blob);
        membership->load(ms);
        std::istringstream rs(ckpt->reputation_blob);
        reputation.load(rs);
        if (membership->view().epoch > 0) {
          const MembershipView& mv = membership->view();
          const size_t rows_e = mv.active.size() + (f > 0 ? mv.byzantine : 0);
          server.renegotiate(config_, mv.epoch, rows_e, mv.byzantine);
          pipeline.adopt_rule(rows_e, mv.byzantine, &server.gar());
        }
      }
      result.train_loss = std::move(ckpt->train_loss);
      result.round_rows.assign(ckpt->round_rows.begin(), ckpt->round_rows.end());
      result.round_f.assign(ckpt->round_f.begin(), ckpt->round_f.end());
      result.eval = std::move(ckpt->eval);
      pipeline.start_from(ckpt->round);
      start_round = ckpt->round;
      // Checkpoints are written *before* boundary processing (so the
      // file is a pure function of the trajectory prefix, never of how
      // far past the boundary the writing run's horizon reached); when
      // the checkpoint round is a boundary, re-run it now.
      process_boundary(start_round);
    }
  }

  for (size_t t = start_round + 1; t <= config_.steps; ++t) {
    const RoundPipeline::Round& round = pipeline.acquire(t, server.parameters());
    result.train_loss.push_back(round.loss_sum /
                                static_cast<double>(round.live_honest));
    result.round_rows.push_back(round.rows);
    result.round_f.push_back(round.f_budget);
    result.phase.fill += round.fill_wait_seconds;
    result.phase.fill_busy += round.fill_busy_seconds;

    // Aggregate the live prefix with the (n', f_e)-admissible rule —
    // while, at depth k >= 1, the fill thread already produces rounds
    // t+1 .. t+k against their stale parameter snapshots.
    const Aggregator& round_gar = pipeline.aggregator_for(round.rows, round.f_budget);
    Stopwatch agg_watch;
    server.aggregate_with(round_gar, round.batch_view);
    result.phase.aggregate += agg_watch.seconds();
    Stopwatch apply_watch;
    server.apply(t);
    result.phase.apply += apply_watch.seconds();

    // Reputation audit: every delivered row (live and quarantined shadow
    // alike) is scored against the round's selected aggregate.
    if (membership)
      reputation.observe_round(round.batch_view, round.live_honest, round.live_ids,
                               round.shadow_view, round.shadow_ids,
                               server.last_aggregate());

    // Periodic evaluation (and always at the last step).
    if (t % config_.eval_every == 0 || t == config_.steps) {
      const double acc = model_.accuracy(server.parameters(), test_);
      result.eval.push_back({t, acc});
    }

    // Checkpoint before any boundary processing (see the restore path:
    // the boundary is re-run on resume), also at the final step so a
    // finished run can be extended by raising config.steps.
    if (checkpointing && (t % config_.checkpoint_every == 0 || t == config_.steps))
      write_checkpoint(t);

    process_boundary(t);
  }

  // Channel accounting: the server's full-round tree (current and any
  // epoch-retired instances) plus every per-n' instance the engine
  // constructed (their counters are only written by the rounds that ran
  // them, all quiescent by now).
  if (config_.tree_levels > 0) {
    if (const auto* tree = dynamic_cast<const HierarchicalAggregator*>(&server.gar()))
      result.channel.accumulate(tree->channel_stats());
    server.add_retired_channel_stats(result.channel);
    pipeline.add_channel_stats(result.channel);
  }

  // Elasticity outputs: the applied churn trace and the final reputation
  // scores (both pure functions of (config, seed, churn_seed)).
  if (membership) {
    result.churn_trace = membership->trace();
    if (reputation.enabled()) result.reputation_scores = reputation.scores();
  }

  result.final_parameters = server.parameters();
  result.final_accuracy = result.eval.empty() ? std::nan("") : result.eval.back().accuracy;
  result.final_train_loss = result.train_loss.back();

  // Convergence-speed diagnostics.
  double min_loss = result.train_loss[0];
  for (double l : result.train_loss) min_loss = std::min(min_loss, l);
  result.min_train_loss = min_loss;
  const double threshold = min_loss + 0.05 * std::abs(min_loss);
  result.steps_to_min_loss = 0;
  for (size_t t = 0; t < result.train_loss.size(); ++t) {
    if (result.train_loss[t] <= threshold) {
      result.steps_to_min_loss = t + 1;
      break;
    }
  }
  return result;
}

}  // namespace dpbyz
