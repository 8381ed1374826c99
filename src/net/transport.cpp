#include "net/transport.hpp"

#include <algorithm>

#include "utils/errors.hpp"

namespace dpbyz::net {

EdgeTransport::EdgeTransport(const LinkConfig& config, uint64_t edge_seed)
    : config_(config),
      encoder_(WireMode::kRaw64, config.chunk_values),
      channel_(config.channel, edge_seed) {}

bool EdgeTransport::transfer(std::span<const double> row, std::span<double> out,
                             ChannelStats& stats) {
  require(row.size() == out.size(), "EdgeTransport::transfer: dim mismatch");

  frames_.clear();
  const size_t total = encoder_.encode_row(row, frames_);

  // The receiver assembles into a zeroed row: the chunks cover every
  // coordinate, and a failed transfer leaves exactly the §2.1 zero
  // substitute behind.
  std::fill(out.begin(), out.end(), 0.0);
  have_.resize(total);
  std::fill(have_.begin(), have_.end(), uint8_t{0});

  to_send_.resize(total);
  for (size_t seq = 0; seq < total; ++seq) to_send_[seq] = static_cast<uint32_t>(seq);

  size_t received = 0;
  for (size_t attempt = 0; attempt <= config_.retransmit_limit; ++attempt) {
    if (attempt > 0) stats.retransmit_frames += to_send_.size();
    delivered_.clear();
    channel_.transmit(frames_, to_send_, delivered_, stats);

    for (size_t i = 0; i < delivered_.count(); ++i) {
      FrameView chunk;
      if (decode_frame(delivered_.frame(i), chunk) != DecodeStatus::kOk)
        continue;  // corrupted in flight — same as dropped
      if (chunk.total != total || chunk.seq >= total) continue;
      if (have_[chunk.seq]) continue;  // duplicate delivery
      if (!apply_chunk(chunk, out)) continue;
      have_[chunk.seq] = 1;
      ++received;
    }
    if (received == total) return true;

    to_send_.clear();
    for (size_t seq = 0; seq < total; ++seq)
      if (!have_[seq]) to_send_.push_back(static_cast<uint32_t>(seq));
  }

  // Retransmit budget exhausted: abandon the row.  Partially-assembled
  // coordinates are wiped so the substitute is exactly zero.
  std::fill(out.begin(), out.end(), 0.0);
  ++stats.rows_substituted;
  return false;
}

}  // namespace dpbyz::net
