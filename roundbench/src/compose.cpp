#include "compose.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "attacks/adaptive.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"
#include "data/samplers.hpp"
#include "models/clipping.hpp"
#include "models/optimizer.hpp"

namespace roundbench {

using namespace dpbyz;

namespace {

struct Pipeline {
  IidSampler sampler;
  Rng sample_rng;
  Rng noise_rng;
  std::vector<size_t> batch;
  Vector clean;
};

size_t attackers(const ExperimentConfig& c) {
  return c.attack_enabled ? c.num_byzantine : 0;
}

void check_scope(const ExperimentConfig& c) {
  if (c.participation != "full" || c.dropout_prob != 0.0 ||
      c.worker_momentum != 0.0 || c.data_partition != "shared" ||
      c.lr_schedule != "constant" || c.churn != "off" ||
      c.straggler_policy != "off" || !c.checkpoint_path.empty() || c.fast_math)
    throw std::invalid_argument(
        "compose_run: config is outside the re-composed round (" + c.label() + ")");
}

/// Spans one compose_run records, for reserving the buffer.
size_t spans_per_run(const ExperimentConfig& c) {
  const size_t honest = c.num_workers - attackers(c);
  const size_t evals = c.steps / c.eval_every + 1;
  return c.steps * (5 * honest + 5) + evals;
}

}  // namespace

ComposedRun compose_run(const ExperimentConfig& config, const Model& model,
                        const Dataset& train, const Dataset& test, Tracer& tracer) {
  config.validate();
  check_scope(config);
  const size_t n = config.num_workers;
  const size_t f = attackers(config);
  const size_t honest = n - f;
  const size_t d = model.dim();

  Rng root(config.seed);
  Rng attack_rng = root.derive("attack");
  const std::unique_ptr<NoiseMechanism> mechanism = make_mechanism(config, d);
  std::unique_ptr<Attack> attack;
  if (config.attack_enabled)
    attack = make_attack(config.attack, config.attack_nu,
                         AdaptiveSpec{config.gar, config.prune, config.adapt_probes,
                                      config.adapt_budget});

  std::vector<Pipeline> pipelines;
  pipelines.reserve(honest);
  for (size_t i = 0; i < honest; ++i) {
    const Rng worker = root.derive("worker-" + std::to_string(i));
    pipelines.push_back({IidSampler(train.size()), worker.derive("sampling"),
                         worker.derive("dp-noise"), {}, Vector(d, 0.0)});
  }
  ParameterServer server(make_round_aggregator(config, n),
                         SgdOptimizer(d, constant_lr(config.learning_rate),
                                      config.momentum),
                         model.initial_parameters());
  const bool observe_clean = config.attack_enabled && config.attack_observes == "clean";
  GradientBatch batch(n, d);
  GradientBatch clean;
  if (observe_clean) clean.reshape(honest, d);
  const GradientBatch round_view = batch.view(0, n);

  ComposedRun out;
  out.train_loss.reserve(config.steps);
  tracer.reserve(tracer.spans().size() + spans_per_run(config));
  uint64_t allocs_at_warm = 0;
  const int64_t start = now_ns();

  for (size_t t = 1; t <= config.steps; ++t) {
    if (t == kWarmupRounds + 1) allocs_at_warm = allocations();
    const auto round = static_cast<uint32_t>(t);
    Scope round_span(tracer, kRound, round);
    const Vector& w = server.parameters();
    {
      Scope fill_span(tracer, kFill, round);
      double loss_sum = 0.0;
      for (size_t k = 0; k < honest; ++k) {
        Pipeline& p = pipelines[k];
        {
          Scope s(tracer, kSample, round);
          p.sampler.next_into(config.batch_size, p.sample_rng, p.batch);
        }
        {
          Scope s(tracer, kLoss, round);
          loss_sum += model.batch_loss(w, train, p.batch);
        }
        {
          Scope s(tracer, kGradient, round);
          model.batch_gradient_into(w, train, p.batch, p.clean);
        }
        if (config.clip_enabled) {
          Scope s(tracer, kClip, round);
          clip_l2_inplace(p.clean, config.clip_norm);
        }
        {
          Scope s(tracer, kNoise, round);
          mechanism->perturb_into(p.clean, p.noise_rng, batch.row(k));
        }
        if (observe_clean) clean.set_row(k, p.clean);
      }
      out.train_loss.push_back(loss_sum / static_cast<double>(honest));
      if (attack != nullptr && f > 0) {
        Scope s(tracer, kForge, round);
        const AttackContext ctx{observe_clean ? clean : batch, honest, f, t, 0};
        attack->forge_into(ctx, attack_rng, batch.row(honest));
        for (size_t r = honest + 1; r < n; ++r)
          vec::copy(batch.row(honest), batch.row(r));
      }
    }
    {
      Scope s(tracer, kAggregate, round);
      server.aggregate_with(server.gar(), round_view);
    }
    {
      Scope s(tracer, kApply, round);
      server.apply(t);
    }
    if (t % config.eval_every == 0 || t == config.steps) {
      Scope s(tracer, kEval, round);
      out.final_accuracy = model.accuracy(server.parameters(), test);
    }
  }

  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (config.steps > kWarmupRounds)
    out.allocs_per_round = static_cast<double>(allocations() - allocs_at_warm) /
                           static_cast<double>(config.steps - kWarmupRounds);
  out.final_parameters = server.parameters();
  out.last_batch = batch;
  out.last_aggregate = server.last_aggregate();
  out.honest_rows = honest;
  return out;
}

}  // namespace roundbench
