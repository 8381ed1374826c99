// Unit + invariant tests for the adaptive adversaries (attacks/adaptive.hpp):
// determinism, the shadow-probe budget ledger, the weak-dominance guard of
// the golden-section tuner, selection-boundary mimicry under krum/MDA, and
// the staleness-coupled amplification.
#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/aggregator.hpp"
#include "aggregation/mda.hpp"
#include "attacks/adaptive.hpp"
#include "attacks/little_is_enough.hpp"
#include "core/experiment.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> random_honest(size_t rows, size_t dim, uint64_t seed,
                                  double spread = 0.3) {
  Rng rng(seed);
  std::vector<Vector> out;
  for (size_t i = 0; i < rows; ++i) {
    Vector v = rng.normal_vector(dim, spread);
    v[0] += 1.0;  // non-zero mean so the FoE direction is informative
    out.push_back(std::move(v));
  }
  return out;
}

AttackContext ctx_of(const GradientBatch& observed, size_t f, size_t step = 1,
                     size_t staleness = 0) {
  return AttackContext{observed, observed.rows(), f, step, staleness};
}

/// The tuner's damage proxy, recomputed through the public aggregator
/// API: J(nu) = <agg(batch + f copies of mean + nu * dir) - mean, dir>.
double damage_at(const std::vector<Vector>& honest, size_t f,
                 const std::string& gar, double nu, const Vector& dir) {
  const Vector mean = stats::coordinate_mean(honest);
  std::vector<Vector> all = honest;
  for (size_t i = 0; i < f; ++i) {
    Vector row = mean;
    vec::axpy_inplace(row, nu, CView(dir));
    all.push_back(std::move(row));
  }
  const GradientBatch batch = GradientBatch::from_vectors(all);
  const auto rule = make_aggregator(gar, all.size(), f);
  AggregatorWorkspace ws;
  const std::span<const double> agg = rule->aggregate(batch, ws);
  Vector diff(agg.begin(), agg.end());
  vec::axpy_inplace(diff, -1.0, CView(mean));
  return vec::dot(CView(diff), CView(dir));
}

TEST(AdaptiveAttack, DeterministicAcrossInstancesAndCalls) {
  const GradientBatch observed =
      GradientBatch::from_vectors(random_honest(6, 8, 7));
  const AdaptiveSpec spec{"mda", "off", 8, 0};
  AdaptiveAttack a(AdaptiveAttack::Mode::kAlie, std::nan(""), spec);
  AdaptiveAttack b(AdaptiveAttack::Mode::kAlie, std::nan(""), spec);
  Rng rng(1);
  Vector first(observed.dim());
  a.forge_into(ctx_of(observed, 5), rng, first);
  Vector again(observed.dim());
  a.forge_into(ctx_of(observed, 5), rng, again);
  Vector other(observed.dim());
  b.forge_into(ctx_of(observed, 5), rng, other);
  EXPECT_EQ(first, again);  // pure function of the context: no RNG, no drift
  EXPECT_EQ(first, other);
  EXPECT_DOUBLE_EQ(a.last_nu(), b.last_nu());
}

TEST(AdaptiveAttack, TunedFactorWeaklyDominatesPaperDefaultUnderProxy) {
  // The guard probe makes this true by construction; verify it through
  // the public path for several observation batches and both modes.
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const auto honest = random_honest(6, 8, seed);
    const GradientBatch observed = GradientBatch::from_vectors(honest);
    for (const auto mode :
         {AdaptiveAttack::Mode::kAlie, AdaptiveAttack::Mode::kEmpire}) {
      AdaptiveAttack attack(mode, std::nan(""), AdaptiveSpec{"mda", "off", 8, 0});
      Rng rng(1);
      Vector forged(observed.dim());
      attack.forge_into(ctx_of(observed, 5), rng, forged);
      const Vector mean = stats::coordinate_mean(honest);
      Vector dir;
      if (mode == AdaptiveAttack::Mode::kAlie) {
        dir = stats::coordinate_stddev(honest);
      } else {
        dir = mean;
      }
      vec::scale_inplace(dir, -1.0);
      const double fixed_nu = mode == AdaptiveAttack::Mode::kAlie ? 1.5 : 1.1;
      const double tuned = damage_at(honest, 5, "mda", attack.last_nu(), dir);
      const double fixed = damage_at(honest, 5, "mda", fixed_nu, dir);
      EXPECT_GE(tuned, fixed - 1e-12)
          << "mode=" << (mode == AdaptiveAttack::Mode::kAlie ? "alie" : "empire")
          << " seed=" << seed << " tuned_nu=" << attack.last_nu();
    }
  }
}

TEST(AdaptiveAttack, FallsBackToFixedAttackWhenShadowInadmissible) {
  // krum needs n >= 2f + 3; at (11, 5) the adversary cannot build the
  // shadow rule and must submit the plain ALIE forgery.
  const auto honest = random_honest(6, 8, 3);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  AdaptiveAttack adaptive(AdaptiveAttack::Mode::kAlie, std::nan(""),
                          AdaptiveSpec{"krum", "off", 8, 0});
  ALittleIsEnough fixed(1.5);
  Rng rng(1);
  Vector got(observed.dim());
  adaptive.forge_into(ctx_of(observed, 5), rng, got);
  Vector want(observed.dim());
  fixed.forge_into(ctx_of(observed, 5), rng, want);
  for (size_t c = 0; c < got.size(); ++c) EXPECT_NEAR(got[c], want[c], 1e-12);
  EXPECT_DOUBLE_EQ(adaptive.last_nu(), 1.5);
  EXPECT_EQ(adaptive.evals(), 0u);  // no shadow, no probes spent
}

TEST(AdaptiveAttack, BudgetExhaustionFreezesLastTunedFactor) {
  const GradientBatch observed =
      GradientBatch::from_vectors(random_honest(6, 8, 11));
  // Budget for exactly one search (probes + 2 bracket seeds + 1 guard).
  AdaptiveAttack attack(AdaptiveAttack::Mode::kAlie, std::nan(""),
                        AdaptiveSpec{"mda", "off", 4, 4 + 3});
  Rng rng(1);
  Vector first(observed.dim());
  attack.forge_into(ctx_of(observed, 5), rng, first);
  const double tuned = attack.last_nu();
  const size_t spent = attack.evals();
  EXPECT_EQ(spent, 4u + 3u);
  // Second round: the budget is gone; the factor freezes and no further
  // shadow evaluations happen.
  Vector frozen(observed.dim());
  attack.forge_into(ctx_of(observed, 5), rng, frozen);
  EXPECT_DOUBLE_EQ(attack.last_nu(), tuned);
  EXPECT_EQ(attack.evals(), spent);
  const Vector mean = stats::coordinate_mean(random_honest(6, 8, 11));
  Vector sigma = stats::coordinate_stddev(random_honest(6, 8, 11));
  Vector want = mean;
  vec::axpy_inplace(want, -tuned, CView(sigma));
  for (size_t c = 0; c < want.size(); ++c) EXPECT_NEAR(frozen[c], want[c], 1e-12);
}

TEST(AdaptiveAttack, FactoryWiresNamesAndSpecOverload) {
  const auto names = attack_names();
  for (const char* name :
       {"adaptive_alie", "adaptive_empire", "adaptive_mimic", "stale_boost"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
    EXPECT_EQ(make_attack(name, std::nan(""))->name(), name);
    EXPECT_EQ(make_attack(name, std::nan(""), AdaptiveSpec{"median", "off", 3, 9})
                  ->name(),
              name);
  }
  EXPECT_THROW(make_attack("adaptive_bogus", 1.0), std::invalid_argument);
}

TEST(MimicBoundary, ForgedRowWinsKrumSelection) {
  // (n, f) = (11, 4) is krum-admissible; the f colluding copies are
  // mutual zero-distance neighbours, which the boundary probe exploits.
  const size_t f = 4;
  const auto honest = random_honest(7, 8, 21);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  MimicBoundary attack(AdaptiveSpec{"krum", "off", 12, 0});
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed, f), rng, forged);

  std::vector<Vector> all = honest;
  for (size_t i = 0; i < f; ++i) all.push_back(forged);
  const GradientBatch batch = GradientBatch::from_vectors(all);
  const auto krum = make_aggregator("krum", all.size(), f);
  AggregatorWorkspace ws;
  const std::span<const double> winner = krum->aggregate(batch, ws);
  for (size_t c = 0; c < forged.size(); ++c)
    EXPECT_DOUBLE_EQ(winner[c], forged[c]) << "forged row lost the selection";
  EXPECT_GT(attack.last_alpha(), 0.0);  // found a non-trivial offset inside
}

TEST(MimicBoundary, SurvivesKrumAtLeastAsOftenAsFixedAlie) {
  // The ISSUE invariant: across observation batches, the boundary-probed
  // forgery is selected by krum at least as often as the fixed ALIE row.
  const size_t f = 4;
  size_t mimic_wins = 0, alie_wins = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto honest = random_honest(7, 8, seed);
    const GradientBatch observed = GradientBatch::from_vectors(honest);
    Rng rng(1);
    MimicBoundary mimic(AdaptiveSpec{"krum", "off", 12, 0});
    ALittleIsEnough alie(1.5);
    for (const bool adaptive : {true, false}) {
      Vector forged(observed.dim());
      const Attack& attack = adaptive ? static_cast<const Attack&>(mimic) : alie;
      attack.forge_into(ctx_of(observed, f), rng, forged);
      std::vector<Vector> all = honest;
      for (size_t i = 0; i < f; ++i) all.push_back(forged);
      const GradientBatch batch = GradientBatch::from_vectors(all);
      AggregatorWorkspace ws;
      const std::span<const double> winner =
          make_aggregator("krum", all.size(), f)->aggregate(batch, ws);
      bool won = true;
      for (size_t c = 0; c < forged.size(); ++c)
        if (winner[c] != forged[c]) won = false;
      (adaptive ? mimic_wins : alie_wins) += won ? 1 : 0;
    }
  }
  EXPECT_GE(mimic_wins, alie_wins);
  EXPECT_GT(mimic_wins, 0u);
}

TEST(MimicBoundary, ForgedRowJoinsMdaSubset) {
  const size_t f = 5;
  const auto honest = random_honest(6, 8, 31);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  MimicBoundary attack(AdaptiveSpec{"mda", "off", 12, 0});
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed, f), rng, forged);

  std::vector<Vector> all = honest;
  for (size_t i = 0; i < f; ++i) all.push_back(forged);
  const GradientBatch batch = GradientBatch::from_vectors(all);
  const auto rule = make_aggregator("mda", all.size(), f);
  const auto* mda = dynamic_cast<const Mda*>(rule.get());
  ASSERT_NE(mda, nullptr);
  AggregatorWorkspace ws;
  mda->select_subset_view(batch, ws);
  bool forged_selected = false;
  for (size_t idx : ws.selected)
    if (idx >= honest.size()) forged_selected = true;
  EXPECT_TRUE(forged_selected)
      << "boundary offset " << attack.last_alpha() << " was filtered";
}

TEST(MimicBoundary, NonSelectionGarDegradesToCalibratedAlie) {
  const auto honest = random_honest(6, 8, 41);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  MimicBoundary attack(AdaptiveSpec{"median", "off", 12, 0});
  Rng rng(1);
  Vector forged(observed.dim());
  attack.forge_into(ctx_of(observed, 5), rng, forged);
  const double nu = ALittleIsEnough::optimal_nu(11, 5);
  EXPECT_DOUBLE_EQ(attack.last_alpha(), nu);
  const Vector mean = stats::coordinate_mean(honest);
  Vector sigma = stats::coordinate_stddev(honest);
  for (size_t c = 0; c < forged.size(); ++c)
    EXPECT_NEAR(forged[c], mean[c] - nu * sigma[c], 1e-12);
  EXPECT_EQ(attack.evals(), 0u);  // no boundary, no probes
}

TEST(StaleBoost, DegeneratesToFixedAlieAtStalenessZero) {
  const auto honest = random_honest(6, 8, 51);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  StaleBoost boost(1.5);
  ALittleIsEnough alie(1.5);
  Rng rng(1);
  Vector got(observed.dim());
  boost.forge_into(ctx_of(observed, 5, 1, 0), rng, got);
  Vector want(observed.dim());
  alie.forge_into(ctx_of(observed, 5), rng, want);
  for (size_t c = 0; c < got.size(); ++c) EXPECT_NEAR(got[c], want[c], 1e-12);
}

TEST(StaleBoost, AmplifiesLinearlyWithStaleness) {
  const auto honest = random_honest(6, 8, 61);
  const GradientBatch observed = GradientBatch::from_vectors(honest);
  StaleBoost boost(1.5);
  Rng rng(1);
  Vector stale2(observed.dim());
  boost.forge_into(ctx_of(observed, 5, 3, 2), rng, stale2);
  const Vector mean = stats::coordinate_mean(honest);
  const Vector sigma = stats::coordinate_stddev(honest);
  for (size_t c = 0; c < stale2.size(); ++c)
    EXPECT_NEAR(stale2[c], mean[c] - 1.5 * 3.0 * sigma[c], 1e-12);
}

// --- end-to-end invariants on the paper task --------------------------------

class AdaptiveTraining : public ::testing::Test {
 protected:
  static const PhishingExperiment& experiment() {
    static const PhishingExperiment exp(42);
    return exp;
  }

  static ExperimentConfig short_config(const std::string& gar,
                                       const std::string& attack) {
    ExperimentConfig cfg;
    cfg.steps = 200;
    cfg.eval_every = 200;
    cfg.gar = gar;
    cfg.attack_enabled = true;
    cfg.attack = attack;
    return cfg;
  }
};

TEST_F(AdaptiveTraining, TunedAlieWeaklyDominatesFixedAlieOnTrainerLoss) {
  // The acceptance invariant: per GAR, the self-tuning adversary hurts
  // the defense at least as much as the fixed paper attack (higher final
  // training loss = more damage).
  for (const char* gar : {"mda", "average", "median"}) {
    const RunResult fixed = experiment().run(short_config(gar, "little"));
    const RunResult tuned = experiment().run(short_config(gar, "adaptive_alie"));
    EXPECT_GE(tuned.final_train_loss, fixed.final_train_loss - 1e-9) << gar;
  }
}

TEST_F(AdaptiveTraining, RunsAreReproduciblePerSeed) {
  const ExperimentConfig cfg = short_config("mda", "adaptive_alie");
  const RunResult a = experiment().run(cfg);
  const RunResult b = experiment().run(cfg);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.final_parameters, b.final_parameters);
}

TEST_F(AdaptiveTraining, ParallelSeedsBitIdenticalToSerial) {
  // The adaptive adversary keeps per-instance mutable scratch; each
  // seeded run owns its own instance, so the seeds x threads matrix must
  // stay bit-identical (the library-wide determinism invariant).
  const ExperimentConfig cfg = short_config("mda", "adaptive_mimic");
  const auto serial = experiment().run_seeds(cfg, 3);
  const auto parallel = experiment().run_seeds_parallel(cfg, 3, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].train_loss, parallel[s].train_loss);
    EXPECT_EQ(serial[s].final_parameters, parallel[s].final_parameters);
  }
}

}  // namespace
}  // namespace dpbyz
