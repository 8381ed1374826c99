// Failure-injection tests: dropped workers (paper §2.1's zero-gradient
// convention), worker-side momentum, and malformed-input hardening of the
// full pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/trainer.hpp"

#include "aggregate.hpp"

namespace dpbyz {
namespace {

struct SmallTask {
  Dataset train;
  Dataset test;
  LinearModel model;
  SmallTask() : model(6, LinearLoss::kMseOnSigmoid) {
    BlobsConfig c;
    c.num_samples = 400;
    c.num_features = 6;
    c.separation = 4.0;
    const Dataset full = make_blobs(c, 8);
    Rng rng(123);
    auto [tr, te] = full.split(300, rng);
    train = std::move(tr);
    test = std::move(te);
  }
};

ExperimentConfig fast_config() {
  ExperimentConfig c;
  c.steps = 150;
  c.eval_every = 50;
  c.batch_size = 10;
  return c;
}

TEST(Dropout, ZeroProbabilityMatchesBaselineExactly) {
  SmallTask task;
  auto c = fast_config();
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  c.dropout_prob = 0.0;
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
}

TEST(Dropout, ModerateDropoutStillConverges) {
  // Robust GARs absorb occasional zero vectors (they look like one more
  // outlier); training should still reach a useful model.
  SmallTask task;
  auto c = fast_config();
  c.dropout_prob = 0.15;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GT(r.final_accuracy, 0.75);
}

TEST(Dropout, ValidatedRange) {
  ExperimentConfig c;
  c.dropout_prob = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.dropout_prob = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Dropout, HeavyDropoutDegradesAverageButZerosAreFilteredByMda) {
  // With plain averaging, zeroed submissions scale the aggregate down;
  // with MDA the zero vectors are (usually) excluded as outliers once the
  // honest cluster is away from the origin.  Both runs must simply remain
  // finite and produce a valid model — the property under test is that
  // the pipeline handles heavy loss rates without faulting.
  SmallTask task;
  for (const char* gar : {"average", "mda"}) {
    auto c = fast_config();
    c.gar = gar;
    c.dropout_prob = 0.5;
    const RunResult r = Trainer(c, task.model, task.train, task.test).run();
    EXPECT_TRUE(vec::all_finite(r.final_parameters)) << gar;
    EXPECT_GE(r.final_accuracy, 0.0) << gar;
  }
}

TEST(WorkerMomentum, ZeroMatchesBaselineExactly) {
  SmallTask task;
  auto c = fast_config();
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  c.worker_momentum = 0.0;
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
}

TEST(WorkerMomentum, ChangesTrajectoryAndStillConverges) {
  SmallTask task;
  auto c = fast_config();
  c.worker_momentum = 0.9;
  // Rescale the server lr so the steady-state step stays comparable.
  c.learning_rate = 2.0 * (1.0 - 0.9);
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const RunResult base = Trainer(fast_config(), task.model, task.train, task.test).run();
  EXPECT_NE(r.final_parameters, base.final_parameters);
  EXPECT_GT(r.final_accuracy, 0.75);
}

TEST(WorkerMomentum, ValidatedRange) {
  ExperimentConfig c;
  c.worker_momentum = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(WorkerMomentum, ReducesEffectiveDpNoiseOnQuadratic) {
  // The §7 hypothesis: worker-side exponential averaging reduces the
  // variance of what the server consumes.  On the quadratic task with a
  // constant learning rate, the momentum run must reach a lower excess
  // loss than the plain-DP run with matched steady-state step size.
  ExperimentConfig c;
  c.num_workers = 4;
  c.num_byzantine = 0;
  c.gar = "average";
  c.batch_size = 10;
  c.steps = 600;
  c.momentum = 0.0;
  c.lr_schedule = "constant";
  c.learning_rate = 0.05;
  c.clip_norm = 3.0;
  c.clip_enabled = false;
  c.eval_every = 600;
  c.dp_enabled = true;
  c.epsilon = 0.5;
  c.delta = 1e-6;

  QuadraticExperiment task(32, 1.0, 42, 4000);
  const double plain = task.mean_excess_loss(c, 3);
  auto with_momentum = c;
  with_momentum.worker_momentum = 0.9;
  with_momentum.learning_rate = c.learning_rate * (1.0 - 0.9);
  const double averaged = task.mean_excess_loss(with_momentum, 3);
  EXPECT_LT(averaged, plain);
}

TEST(FailureHardening, NonFiniteByzantineGradientIsRejectedLoudly) {
  // If an attack ever produced NaN, the aggregation layer must throw
  // rather than propagate poison into the model.
  auto gar = make_aggregator("mda", 3, 1);
  std::vector<Vector> grads{{1.0, 1.0}, {1.0, 1.0}, {std::nan(""), 0.0}};
  EXPECT_THROW(support::aggregate(*gar, grads), std::invalid_argument);
}

TEST(FailureHardening, TrainerRejectsEmptyTrainingSet) {
  SmallTask task;
  const Dataset empty;
  EXPECT_THROW(Trainer(fast_config(), task.model, empty, task.test),
               std::invalid_argument);
}

TEST(FailureHardening, InadmissibleGarConfigFailsAtConstruction) {
  SmallTask task;
  auto c = fast_config();
  c.gar = "krum";
  c.num_byzantine = 5;  // krum needs n >= 2f + 3 = 13 > 11
  Trainer t(c, task.model, task.train, task.test);
  EXPECT_THROW(t.run(), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
