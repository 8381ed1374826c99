#include "core/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "net/frame.hpp"
#include "utils/atomic_file.hpp"

namespace dpbyz {

namespace {

constexpr const char* kMagic = "DPBYZCKP2";

/// CRC-32 of the file's first `len` bytes, as the trailer spells it.
std::string crc_hex(const std::string& bytes, size_t len) {
  const uint32_t crc = net::crc32(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(bytes.data()), len));
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

/// Exact text rendering of a double (its 8-byte pattern as decimal).
std::string bits_of(double x) {
  return std::to_string(std::bit_cast<uint64_t>(x));
}

/// The raw bytes of `v` (doubles and u64s travel as their exact
/// 8-byte representations).
template <typename T>
std::string pack(const std::vector<T>& v) {
  std::string out(v.size() * sizeof(T), '\0');
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

void write_blob(std::ostream& os, const char* name, const std::string& bytes) {
  os << name << ' ' << bytes.size() << '\n';
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os << '\n';
}

/// Parses a checkpoint file held in memory.  Every length or count read
/// from the file is checked against the bytes left after it before
/// anything is allocated, and every error names the file.
class Reader {
 public:
  Reader(const std::string& path, const std::string& file)
      : path_(path), file_(file), is_(file) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("checkpoint: '" + path_ + "' " + what);
  }

  /// The magic line.
  void magic() {
    std::string line;
    std::getline(is_, line);
    if (line != kMagic) fail("is not a checkpoint file");
  }

  /// A "<tag> <value>\n" line.
  uint64_t number(const std::string& tag) {
    std::string got;
    uint64_t value = 0;
    is_ >> got >> value;
    if (is_.fail() || got != tag || is_.get() != '\n')
      fail("expected '" + tag + " <number>', found '" + got + "'");
    return value;
  }

  /// A "<tag> <count>\n" line whose count is a length in bytes or
  /// records that follow it, so it cannot exceed the bytes left.
  size_t count(const std::string& tag) {
    const uint64_t n = number(tag);
    const size_t left = file_.size() - static_cast<size_t>(is_.tellg());
    if (n > left)
      fail("'" + tag + "' claims " + std::to_string(n) + " but only " +
           std::to_string(left) + " bytes follow");
    return static_cast<size_t>(n);
  }

  /// A length-prefixed blob: "<name> <len>\n<len bytes>\n".
  std::string blob(const std::string& name) {
    std::string bytes(count(name), '\0');
    is_.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (is_.gcount() != static_cast<std::streamsize>(bytes.size()) || is_.get() != '\n')
      fail("has a truncated blob '" + name + "'");
    return bytes;
  }

  template <typename T>
  std::vector<T> array(const std::string& name) {
    const std::string bytes = blob(name);
    if (bytes.size() % sizeof(T) != 0) fail("has a misaligned blob '" + name + "'");
    std::vector<T> v(bytes.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
  }

  /// The "end" marker, the position right after it (the bytes the
  /// checksum covers), and then the "crc32 <hex>\n" trailer, which must
  /// match the computed checksum and end the file.
  void trailer() {
    std::string tag;
    is_ >> tag;
    if (tag != "end" || is_.get() != '\n') fail("has no end marker");
    const auto covered = static_cast<size_t>(is_.tellg());
    const std::string rest = file_.substr(covered);
    if (rest.size() != 15 || rest.rfind("crc32 ", 0) != 0 || rest.back() != '\n')
      fail("has no well-formed CRC-32 trailer");
    const std::string stored = rest.substr(6, 8);
    if (const std::string computed = crc_hex(file_, covered); stored != computed)
      fail("fails its CRC-32 check (stored " + stored + ", computed " + computed + ")");
  }

 private:
  const std::string& path_;
  const std::string& file_;
  std::istringstream is_;
};

}  // namespace

std::string checkpoint_signature(const ExperimentConfig& c) {
  std::ostringstream sig;
  sig << "ckpt-v1"
      << ";n=" << c.num_workers << ";f=" << c.num_byzantine << ";b=" << c.batch_size
      << ";lr=" << bits_of(c.learning_rate) << ";sched=" << c.lr_schedule
      << ";mom=" << bits_of(c.momentum) << ";clip=" << bits_of(c.clip_norm)
      << ";clip_on=" << c.clip_enabled << ";eval=" << c.eval_every
      << ";drop=" << bits_of(c.dropout_prob) << ";wmom=" << bits_of(c.worker_momentum)
      << ";part=" << c.data_partition
      << ";depth=" << c.pipeline_depth << ";fast=" << c.fast_math
      << ";live=" << c.participation << ";lp=" << bits_of(c.participation_prob)
      << ";ns=" << c.num_stragglers << ";sp=" << c.straggler_period
      << ";dp=" << c.dp_enabled << ";mech=" << c.mechanism
      << ";eps=" << bits_of(c.epsilon) << ";delta=" << bits_of(c.delta)
      << ";gar=" << c.gar << ";prune=" << c.prune
      << ";merge=" << c.tree_merge_gar << ";tl=" << c.tree_levels
      << ";tb=" << c.tree_branch << ";chunk=" << c.wire_chunk
      << ";atk=" << c.attack_enabled << ";atkname=" << c.attack
      << ";nu=" << bits_of(c.attack_nu) << ";probes=" << c.adapt_probes
      << ";budget=" << c.adapt_budget << ";obs=" << c.attack_observes
      << ";churn=" << c.churn << ";ce=" << c.churn_epoch_rounds
      << ";cs=" << c.churn_seed << ";cj=" << bits_of(c.churn_join_prob)
      << ";cl=" << bits_of(c.churn_leave_prob) << ";cc=" << bits_of(c.churn_crash_prob)
      << ";rep=" << c.reputation << ";ck=" << c.checkpoint_every << ";seed=" << c.seed;
  return sig.str();
}

void save_checkpoint(const std::string& path, const TrainerCheckpoint& ckpt) {
  std::ostringstream os;
  os << kMagic << '\n';
  write_blob(os, "sig", ckpt.signature);
  os << "round " << ckpt.round << '\n';
  write_blob(os, "params", pack(ckpt.params));
  write_blob(os, "velocity", pack(ckpt.velocity));
  os << "workers " << ckpt.worker_blobs.size() << '\n';
  for (const std::string& blob : ckpt.worker_blobs) write_blob(os, "worker", blob);
  write_blob(os, "attack", ckpt.attack_blob);
  write_blob(os, "streams", ckpt.stream_blob);
  write_blob(os, "membership", ckpt.membership_blob);
  write_blob(os, "reputation", ckpt.reputation_blob);
  write_blob(os, "train_loss", pack(ckpt.train_loss));
  write_blob(os, "round_rows", pack(ckpt.round_rows));
  write_blob(os, "round_f", pack(ckpt.round_f));
  std::vector<uint64_t> eval_steps;
  std::vector<double> eval_accs;
  eval_steps.reserve(ckpt.eval.size());
  eval_accs.reserve(ckpt.eval.size());
  for (const EvalRecord& e : ckpt.eval) {
    eval_steps.push_back(e.step);
    eval_accs.push_back(e.accuracy);
  }
  write_blob(os, "eval_steps", pack(eval_steps));
  write_blob(os, "eval_accs", pack(eval_accs));
  os << "end\n";
  const std::string body = os.str();
  write_file_atomic(path, "checkpoint", [&](std::ostream& out) {
    out << body << "crc32 " << crc_hex(body, body.size()) << '\n';
  });
}

TrainerCheckpoint decode_checkpoint(const std::string& file, const std::string& path) {
  // Parse first, so a truncated or mis-tagged file reports where it
  // broke; the checksum then vouches for the payload bytes.
  Reader in(path, file);
  in.magic();
  TrainerCheckpoint ckpt;
  ckpt.signature = in.blob("sig");
  ckpt.round = in.number("round");
  ckpt.params = in.array<double>("params");
  ckpt.velocity = in.array<double>("velocity");
  const size_t workers = in.count("workers");
  ckpt.worker_blobs.reserve(workers);
  for (size_t i = 0; i < workers; ++i) ckpt.worker_blobs.push_back(in.blob("worker"));
  ckpt.attack_blob = in.blob("attack");
  ckpt.stream_blob = in.blob("streams");
  ckpt.membership_blob = in.blob("membership");
  ckpt.reputation_blob = in.blob("reputation");
  ckpt.train_loss = in.array<double>("train_loss");
  ckpt.round_rows = in.array<uint64_t>("round_rows");
  ckpt.round_f = in.array<uint64_t>("round_f");
  const std::vector<uint64_t> eval_steps = in.array<uint64_t>("eval_steps");
  const std::vector<double> eval_accs = in.array<double>("eval_accs");
  if (eval_steps.size() != eval_accs.size())
    in.fail("has mismatched eval step/accuracy lengths");
  ckpt.eval.reserve(eval_steps.size());
  for (size_t i = 0; i < eval_steps.size(); ++i)
    ckpt.eval.push_back({static_cast<size_t>(eval_steps[i]), eval_accs[i]});
  in.trailer();
  return ckpt;
}

std::optional<TrainerCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return decode_checkpoint(
      std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()), path);
}

}  // namespace dpbyz
