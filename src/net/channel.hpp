// channel.hpp — deterministic simulated lossy, non-FIFO transport.
//
// SimulatedChannel models the unreliable link of the self-stabilizing
// communication literature (PAPERS.md: Dolev et al., unreliable non-FIFO
// channels): each frame pushed through it may be dropped, duplicated,
// corrupted in flight (a byte flip — the CRC rejects it at the receiver,
// so corruption degrades into loss), or delivered out of order.  Every
// fault is drawn from one seeded Rng in send order, so a transmission is
// a pure function of (config, seed, call sequence) — the property the
// bit-reproducible lossy-run guarantee in docs/ARCHITECTURE.md rests on.
//
// The channel copies frames into the caller's delivery buffer (senders
// keep their originals for retransmission) and reuses that storage, so
// steady-state transmissions allocate nothing once the buffers have
// warmed up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "math/rng.hpp"
#include "net/frame.hpp"

namespace dpbyz::net {

/// Per-frame fault probabilities, each in [0, 1].
struct ChannelConfig {
  double drop = 0.0;       ///< frame vanishes
  double duplicate = 0.0;  ///< a second copy is delivered
  double corrupt = 0.0;    ///< one byte of a delivered copy is flipped
  double reorder = 0.0;    ///< a delivered copy is delayed past later sends
};

/// Counters accumulated across transmissions (and, at the aggregator
/// level, across every edge of a tree).  Plain sums — order-independent,
/// so per-node counters can be merged after a threaded round.
struct ChannelStats {
  uint64_t frames_sent = 0;       ///< frames pushed in (incl. retransmits)
  uint64_t frames_delivered = 0;  ///< copies that arrived (incl. duplicates)
  uint64_t frames_dropped = 0;
  uint64_t frames_duplicated = 0;
  uint64_t frames_corrupted = 0;  ///< byte-flipped in flight (CRC rejects)
  uint64_t frames_reordered = 0;  ///< copies delivered out of send order
  uint64_t retransmit_frames = 0; ///< frames re-sent after a missing chunk
  uint64_t rows_substituted = 0;  ///< rows abandoned → zero-substituted
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;

  void accumulate(const ChannelStats& o);
  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

class SimulatedChannel {
 public:
  SimulatedChannel(const ChannelConfig& config, uint64_t seed);

  /// Pushes frames[indices[j]] (in j order) through the channel; the
  /// surviving copies land in `out` (appended) in delivery order, which
  /// under reorder faults is not send order.  Corrupted copies arrive
  /// with one byte flipped — the caller's decode rejects them.  All
  /// randomness is drawn in send order from this channel's own stream.
  void transmit(const FrameBuffer& frames, std::span<const uint32_t> indices,
                FrameBuffer& out, ChannelStats& stats);

  const ChannelConfig& config() const { return config_; }

 private:
  struct Delivery {
    uint64_t rank;        // sort key: jittered send position
    uint32_t src;         // index into `indices`' frames
    uint8_t corrupt;      // flip one byte after copying
    uint32_t flip_pos;    // byte position to flip
    uint8_t flip_mask;    // nonzero XOR mask
  };

  ChannelConfig config_;
  Rng rng_;
  std::vector<Delivery> plan_;  // reused across transmissions
};

}  // namespace dpbyz::net
