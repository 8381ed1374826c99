// checkpoint.hpp — trainer checkpoint/restore (ROADMAP item 5).
//
// A checkpoint captures everything the trainer loop threads through a
// round boundary: the model parameters, the server's momentum buffer,
// every worker's RNG streams and velocity, the adversary's cross-round
// state, the round engine's fill-side streams, the membership epoch and
// reputation book, and the metrics recorded so far.  Restoring it and
// running the remaining rounds produces a trajectory bit-identical to
// the uninterrupted run: checkpoint rounds are ring barriers (see
// RoundPipeline::acquire), so the captured streams are quiescent and the
// barrier pattern is the same whether or not the process died.
//
// File format: a magic line ("DPBYZCKP2"), then named length-prefixed
// blobs — text headers with raw byte payloads (doubles travel as their
// exact 8-byte representations) — an "end" line, and last a
// "crc32 <8 hex digits>" line: the CRC-32 (net::crc32) of every byte
// before it.  The reader checks tags, and bounds every length and count
// by the bytes left in the file before allocating; the checksum is what
// catches a flipped bit inside a payload: a mismatch throws instead of
// restoring a wrong θ.  Writes are atomic: the file
// goes to `path + ".tmp"` and is renamed over `path`, so a crash
// mid-write never corrupts an existing checkpoint.
//
// The signature ties a checkpoint to the trajectory-shaping configuration
// (every knob except `steps`, the checkpoint file location and
// `threads` — all of which may change without perturbing the
// trajectory; extending `steps` is exactly how a restored run continues
// past its original horizon).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// The serialized trainer state at a checkpoint round.
struct TrainerCheckpoint {
  std::string signature;  ///< checkpoint_signature(config) at save time
  uint64_t round = 0;     ///< 1-based round the state is *after*
  Vector params;          ///< θ_round
  Vector velocity;        ///< server optimizer momentum buffer
  std::vector<std::string> worker_blobs;  ///< per pool worker, HonestWorker state
  std::string attack_blob;      ///< Attack::save_state (empty when stateless)
  std::string stream_blob;      ///< RoundPipeline::save_stream_state
  std::string membership_blob;  ///< MembershipManager::save ("" when churn off)
  std::string reputation_blob;  ///< ReputationBook::save ("" when churn off)
  // Metrics recorded through `round`, so the resumed RunResult equals the
  // uninterrupted one.
  std::vector<double> train_loss;
  std::vector<uint64_t> round_rows;
  std::vector<uint64_t> round_f;
  std::vector<EvalRecord> eval;
};

/// Fingerprint of every trajectory-shaping config knob (see the header
/// comment for the deliberate exclusions).
std::string checkpoint_signature(const ExperimentConfig& config);

/// Atomically write `ckpt` to `path` (tmp + rename).  Throws
/// std::runtime_error on I/O failure.
void save_checkpoint(const std::string& path, const TrainerCheckpoint& ckpt);

/// Parse the bytes of a checkpoint file read from `path`.  Every length
/// and count in the file is checked against the bytes that follow it
/// before anything is allocated.  Throws std::runtime_error
/// "checkpoint: '<path>' ..." on a corrupt or truncated file, naming
/// "CRC-32" when the checksum trailer does not match.
TrainerCheckpoint decode_checkpoint(const std::string& bytes, const std::string& path);

/// Load `path` (decode_checkpoint of its bytes); nullopt when the file
/// does not exist.
std::optional<TrainerCheckpoint> load_checkpoint(const std::string& path);

}  // namespace dpbyz
