// Tests for trainer checkpoint/restore (core/checkpoint.hpp): signature
// semantics, file-format round trips and corruption handling (including a
// fuzz of the loader over truncated, flipped and garbage files — the
// ASAN CI leg runs this file), and the headline contract — a run killed
// at a checkpoint and restored produces a trajectory bit-identical to the
// uninterrupted run, at every pipeline depth, with and without churn,
// under an adaptive adversary.
//
// TrainerCheckpoint* runs under the TSAN CI job: the depth-k restore
// paths re-prime the ring's fill thread mid-stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "temp_path.hpp"

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
    Rng split_rng(123);
    auto [tr, te] = full.split(300, split_rng);
    train = std::move(tr);
    test = std::move(te);
  }
};

ExperimentConfig ckpt_config(const std::string& path) {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  c.checkpoint_path = path;
  c.checkpoint_every = 10;
  return c;
}

std::string temp_ckpt(const std::string& name) {
  const std::string path = process_temp_path(name + ".ckpt");
  std::remove(path.c_str());
  return path;
}

/// The kill-and-restore harness: run `c` uninterrupted; then run the
/// first `c.steps / 2` rounds into a fresh checkpoint file, "kill" the
/// process (drop the Trainer), restore from the file and finish.  The
/// resumed RunResult must equal the uninterrupted one bit for bit.
void expect_restore_bit_equal(const SmallTask& task, ExperimentConfig c,
                              const std::string& name) {
  c.checkpoint_path = temp_ckpt(name + "_full");
  const RunResult full = Trainer(c, task.model, task.train, task.test).run();

  // The "kill": steps is outside the signature, so a shrunken horizon
  // ends the process at the last checkpoint without changing the prefix.
  ExperimentConfig half = c;
  half.checkpoint_path = temp_ckpt(name + "_killed");
  half.steps = c.steps / 2;
  const RunResult first = Trainer(half, task.model, task.train, task.test).run();
  ASSERT_EQ(first.train_loss.size(), half.steps);

  ExperimentConfig resumed = half;
  resumed.steps = c.steps;
  const RunResult rest = Trainer(resumed, task.model, task.train, task.test).run();

  EXPECT_EQ(rest.train_loss, full.train_loss);
  EXPECT_EQ(rest.final_parameters, full.final_parameters);
  EXPECT_EQ(rest.round_rows, full.round_rows);
  EXPECT_EQ(rest.round_f, full.round_f);
  EXPECT_EQ(rest.churn_trace, full.churn_trace);
  EXPECT_EQ(rest.reputation_scores, full.reputation_scores);
  ASSERT_EQ(rest.eval.size(), full.eval.size());
  for (size_t i = 0; i < full.eval.size(); ++i) {
    EXPECT_EQ(rest.eval[i].step, full.eval[i].step);
    EXPECT_EQ(rest.eval[i].accuracy, full.eval[i].accuracy);
  }
  std::remove(c.checkpoint_path.c_str());
  std::remove(half.checkpoint_path.c_str());
}

// ---- signature ------------------------------------------------------------

TEST(TrainerCheckpoint, SignatureIgnoresHorizonAndPlumbingKnobs) {
  ExperimentConfig a = ckpt_config("/tmp/a.ckpt");
  ExperimentConfig b = a;
  b.steps = 4000;
  b.checkpoint_path = "/elsewhere/b.ckpt";
  b.threads = 8;
  EXPECT_EQ(checkpoint_signature(a), checkpoint_signature(b));
}

TEST(TrainerCheckpoint, SignatureCoversTrajectoryShapingKnobs) {
  const ExperimentConfig a = ckpt_config("/tmp/a.ckpt");
  auto differs = [&](auto mutate) {
    ExperimentConfig m = a;
    mutate(m);
    return checkpoint_signature(m) != checkpoint_signature(a);
  };
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.seed = 2; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.gar = "krum"; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.learning_rate *= 1.0 + 1e-15; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.pipeline_depth = 3; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.churn_seed = 7; }));
  // checkpoint_every shapes depth >= 1 trajectories (dispatch barriers).
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.checkpoint_every = 7; }));
}

// ---- file format ----------------------------------------------------------

TEST(TrainerCheckpoint, FileRoundTripsAllFields) {
  TrainerCheckpoint a;
  a.signature = "sig";
  a.round = 17;
  a.params = {1.5, -2.25, 1e-300};
  a.velocity = {0.0, -0.0, 3.0};
  a.worker_blobs = {"w0 state\n", std::string("bin\0blob", 8)};
  a.attack_blob = "adaptive 4 123\n";
  a.stream_blob = "rng 1 2\n";
  a.membership_blob = "";
  a.reputation_blob = "rep 1 2 0 0\n";
  a.train_loss = {0.5, 0.25};
  a.round_rows = {11, 10};
  a.round_f = {5, 4};
  a.eval = {{10, 0.875}};

  const std::string path = temp_ckpt("roundtrip");
  save_checkpoint(path, a);
  const auto b = load_checkpoint(path);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->signature, a.signature);
  EXPECT_EQ(b->round, a.round);
  EXPECT_EQ(b->params, a.params);
  EXPECT_EQ(b->velocity, a.velocity);
  EXPECT_EQ(b->worker_blobs, a.worker_blobs);
  EXPECT_EQ(b->attack_blob, a.attack_blob);
  EXPECT_EQ(b->stream_blob, a.stream_blob);
  EXPECT_EQ(b->membership_blob, a.membership_blob);
  EXPECT_EQ(b->reputation_blob, a.reputation_blob);
  EXPECT_EQ(b->train_loss, a.train_loss);
  EXPECT_EQ(b->round_rows, a.round_rows);
  EXPECT_EQ(b->round_f, a.round_f);
  ASSERT_EQ(b->eval.size(), 1u);
  EXPECT_EQ(b->eval[0].step, 10u);
  EXPECT_EQ(b->eval[0].accuracy, 0.875);
  std::remove(path.c_str());
}

TEST(TrainerCheckpoint, MissingFileIsNulloptCorruptFileThrows) {
  EXPECT_FALSE(load_checkpoint(temp_ckpt("absent")).has_value());
  const std::string path = temp_ckpt("corrupt");
  {
    std::ofstream os(path);
    os << "DPBYZCKP2\nsig 3\nabc\ntruncated";
  }
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  {
    std::ofstream os(path);
    os << "not a checkpoint\n";
  }
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Flips one bit of the first payload byte of blob `tag` in the file.
void flip_payload_bit(const std::string& path, const std::string& tag) {
  std::string bytes = read_bytes(path);
  const size_t header = bytes.find("\n" + tag + " ");
  ASSERT_NE(header, std::string::npos) << tag;
  const size_t payload = bytes.find('\n', header + 1) + 1;
  bytes[payload] = static_cast<char>(bytes[payload] ^ 0x10);
  write_bytes(path, bytes);
}

TEST(TrainerCheckpoint, PayloadBitFlipFailsCrcAndRestoresNothing) {
  TrainerCheckpoint ckpt;
  ckpt.signature = "s";
  ckpt.round = 3;
  ckpt.params = {1.5, -2.25, 0.125};
  ckpt.velocity = {0.5, 0.0, -1.0};
  const std::string path = temp_ckpt("bitflip");
  save_checkpoint(path, ckpt);
  ASSERT_TRUE(load_checkpoint(path).has_value());
  // Tags and lengths stay intact: only the checksum can see this.
  flip_payload_bit(path, "params");
  try {
    (void)load_checkpoint(path);
    ADD_FAILURE() << "a flipped params byte was restored";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC-32"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }

  // End to end: a resuming trainer refuses the file instead of starting
  // from a wrong θ.
  SmallTask task;
  ExperimentConfig c = ckpt_config(temp_ckpt("bitflip_run"));
  c.steps = 20;
  (void)Trainer(c, task.model, task.train, task.test).run();
  flip_payload_bit(c.checkpoint_path, "params");
  EXPECT_THROW((void)Trainer(c, task.model, task.train, task.test).run(),
               std::runtime_error);
  std::remove(path.c_str());
  std::remove(c.checkpoint_path.c_str());
}

/// Offsets of every decimal digit of every "<tag> <number>" header line
/// of a checkpoint file: the blob lengths, the round and the worker count.
std::vector<size_t> header_digit_offsets(const std::string& bytes) {
  std::vector<size_t> out;
  size_t pos = bytes.find('\n') + 1;  // past the magic line
  for (;;) {
    const size_t space = bytes.find(' ', pos);
    const size_t eol = bytes.find('\n', pos);
    if (space == std::string::npos || eol < space) break;  // "end"
    const std::string tag = bytes.substr(pos, space - pos);
    for (size_t i = space + 1; i < eol; ++i) out.push_back(i);
    const size_t value = std::stoull(bytes.substr(space + 1, eol - space - 1));
    pos = eol + 1;
    if (tag != "round" && tag != "workers") pos += value + 1;  // payload + '\n'
  }
  return out;
}

TEST(TrainerCheckpoint, CorruptFilesFailWithANamedErrorAndRestoreNothing) {
  // A real checkpoint in which every blob is non-empty: churn (membership
  // and reputation), a stateful adversary, evaluations before the save.
  // n = 3 keeps the file (mostly per-worker RNG state) near 65 KB, so
  // the sweeps below stay fast.
  SmallTask task;
  ExperimentConfig c = ckpt_config(temp_ckpt("fuzz_run"));
  c.steps = 10;
  c.eval_every = 5;
  c.checkpoint_every = 5;
  c.gar = "average";
  c.num_workers = 3;
  c.num_byzantine = 1;
  c.attack_enabled = true;
  c.attack = "adaptive_alie";
  c.churn = "epoch";
  c.churn_epoch_rounds = 5;
  c.churn_join_prob = 1.0;
  c.churn_leave_prob = 0.0;
  (void)Trainer(c, task.model, task.train, task.test).run();
  const std::string good = read_bytes(c.checkpoint_path);
  {
    const TrainerCheckpoint ckpt = decode_checkpoint(good, c.checkpoint_path);
    for (const std::string* blob : {&ckpt.signature, &ckpt.attack_blob, &ckpt.stream_blob,
                                    &ckpt.membership_blob, &ckpt.reputation_blob})
      EXPECT_FALSE(blob->empty());
    EXPECT_FALSE(ckpt.params.empty() || ckpt.velocity.empty() ||
                 ckpt.worker_blobs.empty() || ckpt.train_loss.empty() ||
                 ckpt.round_rows.empty() || ckpt.round_f.empty() || ckpt.eval.empty());
  }

  // Every rejection must be the loader's own named error: never
  // std::bad_alloc or std::length_error from a length read off the file.
  size_t inputs = 0;
  auto expect_rejected = [&](const std::string& bytes, const std::string& what) {
    ++inputs;
    try {
      (void)decode_checkpoint(bytes, "fuzz.ckpt");
      ADD_FAILURE() << what << ": the corrupt file decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("checkpoint: 'fuzz.ckpt' ", 0), 0u)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": unnamed error: " << e.what();
    }
  };

  for (size_t len = 0; len < good.size(); ++len)
    expect_rejected(good.substr(0, len), "truncated to " + std::to_string(len));

  const std::vector<size_t> digits = header_digit_offsets(good);
  ASSERT_GE(digits.size(), 20u);
  for (const size_t at : digits)
    for (const char d : std::string("0123456789 -x")) {
      if (d == good[at]) continue;
      std::string bad = good;
      bad[at] = d;
      expect_rejected(bad, "header digit at " + std::to_string(at) + " -> '" + d + "'");
    }
  // Lengths and counts far beyond the file.
  for (const std::string tag : {"\nsig ", "\nworkers ", "\nreputation "}) {
    const size_t at = good.find(tag) + tag.size();
    std::string bad = good;
    bad.replace(at, good.find('\n', at) - at, "1000000000000000000");
    expect_rejected(bad, "huge count after '" + tag.substr(1) + "'");
  }

  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bad = good;
    const size_t flips = 1 + rng.uniform_index(4);
    for (size_t k = 0; k < flips; ++k)
      bad[rng.uniform_index(bad.size())] ^= static_cast<char>(1 + rng.uniform_index(255));
    expect_rejected(bad, "flip trial " + std::to_string(trial));
  }
  const std::string magic = good.substr(0, good.find('\n') + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.uniform_index(4096), '\0');
    for (char& ch : garbage) ch = static_cast<char>(rng.uniform_index(256));
    expect_rejected(garbage, "garbage trial " + std::to_string(trial));
    expect_rejected(magic + garbage, "magic + garbage trial " + std::to_string(trial));
  }
  EXPECT_GT(inputs, good.size() + 2000);

  // Through the file: a resuming trainer refuses each kind of damage
  // before restoring anything, and leaves the file as it found it.
  std::string bad_count = good;
  bad_count[good.find("\nworkers ") + 9] = '9';
  for (const std::string& bad :
       {good.substr(0, good.size() / 2), good.substr(0, good.size() - 1), bad_count}) {
    write_bytes(c.checkpoint_path, bad);
    try {
      (void)load_checkpoint(c.checkpoint_path);
      ADD_FAILURE() << "a corrupt checkpoint file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.checkpoint_path), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)Trainer(c, task.model, task.train, task.test).run(),
                 std::runtime_error);
    EXPECT_EQ(read_bytes(c.checkpoint_path), bad);
  }
  std::remove(c.checkpoint_path.c_str());
}

TEST(TrainerCheckpoint, WriteIsAtomicNoTmpLeftBehind) {
  const std::string path = temp_ckpt("atomic");
  TrainerCheckpoint ckpt;
  ckpt.signature = "s";
  ckpt.round = 1;
  ckpt.train_loss = {1.0};
  ckpt.round_rows = {1};
  ckpt.round_f = {0};
  save_checkpoint(path, ckpt);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

// ---- kill-and-restore bit-equality ---------------------------------------

TEST(TrainerCheckpoint, RestoreBitEqualAtDepthZero) {
  SmallTask task;
  expect_restore_bit_equal(task, ckpt_config(""), "d0");
}

TEST(TrainerCheckpoint, RestoreBitEqualAtDepthTwoWithAdaptiveAttack) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.pipeline_depth = 2;
  c.attack_enabled = true;
  c.attack = "adaptive_alie";
  c.num_workers = 11;
  c.num_byzantine = 3;
  expect_restore_bit_equal(task, c, "d2_adaptive");
}

TEST(TrainerCheckpoint, RestoreBitEqualWithChurnAndParticipation) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.churn = "epoch";
  c.churn_epoch_rounds = 5;
  c.churn_join_prob = 0.6;
  c.churn_leave_prob = 0.1;
  c.gar = "average";  // iid draws over a shrunken roster may dip below a
                      // selection rule's (n', f) floor; admissibility has
                      // its own tests — this one targets restore equality
  c.participation = "iid";
  c.participation_prob = 0.8;
  c.attack_enabled = true;
  c.attack = "little";
  c.num_workers = 11;
  c.num_byzantine = 3;
  expect_restore_bit_equal(task, c, "churn");
}

TEST(TrainerCheckpoint, RestoreBitEqualWithChurnAtDepthTwo) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.pipeline_depth = 2;
  c.churn = "epoch";
  c.churn_epoch_rounds = 10;
  c.churn_join_prob = 0.7;
  c.churn_leave_prob = 0.1;
  expect_restore_bit_equal(task, c, "churn_d2");
}

TEST(TrainerCheckpoint, ResumeRejectsIncompatibleConfig) {
  SmallTask task;
  ExperimentConfig c = ckpt_config(temp_ckpt("reject"));
  c.steps = 20;
  Trainer(c, task.model, task.train, task.test).run();
  ExperimentConfig other = c;
  other.learning_rate *= 2.0;
  EXPECT_THROW(Trainer(other, task.model, task.train, task.test).run(),
               std::invalid_argument);
  std::remove(c.checkpoint_path.c_str());
}

TEST(TrainerCheckpoint, CheckpointingOffLeavesTrajectoryUntouched) {
  // Writing checkpoints must not perturb a run: checkpoint_every = 10
  // against checkpointing off, bit for bit, on a plain and on a churning
  // config.  Depth 0, where checkpoint rounds are not dispatch barriers
  // (at depth >= 1 they are, and change staleness by design; the depth-2
  // checkpointing-off trajectory is golden-pinned in
  // RoundPipelineRingGolden.Depth2DpAttackTrajectoryPinned).
  SmallTask task;
  ExperimentConfig plain;
  plain.steps = 60;
  plain.eval_every = 10;
  plain.batch_size = 10;
  ExperimentConfig churning = plain;
  churning.churn = "epoch";
  churning.churn_epoch_rounds = 20;
  churning.churn_join_prob = 0.6;
  churning.churn_leave_prob = 0.1;
  for (const ExperimentConfig& off : {plain, churning}) {
    ExperimentConfig writing = off;
    writing.checkpoint_path = temp_ckpt("inert_" + off.churn);
    writing.checkpoint_every = 10;
    const RunResult a = Trainer(off, task.model, task.train, task.test).run();
    const RunResult b = Trainer(writing, task.model, task.train, task.test).run();
    std::remove(writing.checkpoint_path.c_str());
    if (off.churn == "epoch") {
      EXPECT_FALSE(a.churn_trace.empty());
    }
    EXPECT_EQ(b.train_loss, a.train_loss) << off.churn;
    EXPECT_EQ(b.final_parameters, a.final_parameters) << off.churn;
    EXPECT_EQ(b.round_rows, a.round_rows) << off.churn;
    EXPECT_EQ(b.round_f, a.round_f) << off.churn;
    EXPECT_EQ(b.churn_trace, a.churn_trace) << off.churn;
  }
}

}  // namespace
}  // namespace dpbyz
