// Tests for src/net/: frame round trips (raw64 byte-exact on every
// GradientBatch view row), checksum rejection of every byte flip, the
// raw64-only mode byte, a fuzz sweep over mutated frames (never crash,
// never over-read — the ASAN CI leg runs this file), the seeded
// channel's fault properties, and the edge transport's reassembly /
// retransmit / zero-substitution behaviour.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/vector_ops.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"

namespace dpbyz {
namespace {

using net::ChannelConfig;
using net::ChannelStats;
using net::DecodeStatus;
using net::EdgeTransport;
using net::FrameBuffer;
using net::FrameEncoder;
using net::FrameView;
using net::LinkConfig;
using net::SimulatedChannel;
using net::WireMode;

Vector random_row(size_t d, uint64_t seed) {
  Rng rng(seed);
  return rng.normal_vector(d, 1.0);
}

/// Encode → decode every frame → reassemble into a fresh zeroed row.
Vector round_trip(FrameEncoder& enc, std::span<const double> row) {
  FrameBuffer frames;
  enc.encode_row(row, frames);
  Vector out(row.size(), 0.0);
  for (size_t i = 0; i < frames.count(); ++i) {
    FrameView chunk;
    EXPECT_EQ(net::decode_frame(frames.frame(i), chunk), DecodeStatus::kOk);
    EXPECT_TRUE(net::apply_chunk(chunk, out));
  }
  return out;
}

bool bit_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- lossless round trip ---------------------------------------------------

TEST(Frame, Raw64RoundTripIsByteExact) {
  // Signed zeros, subnormals and extreme exponents all survive: the
  // payload is the IEEE-754 bit pattern, not a decimal rendering.
  Vector row = random_row(37, 3);
  row[0] = -0.0;
  row[1] = 5e-324;             // smallest subnormal
  row[2] = -1.7976931348623157e308;
  row[3] = 1e-300;
  FrameEncoder enc(WireMode::kRaw64, /*chunk_values=*/8);
  const Vector out = round_trip(enc, row);
  EXPECT_TRUE(bit_equal(out, row));
  EXPECT_TRUE(std::signbit(out[0]));
}

TEST(Frame, Raw64RoundTripEveryGradientBatchViewRow) {
  // The acceptance criterion verbatim: every row of every contiguous
  // view of a batch round-trips byte-exactly.
  const size_t n = 9, d = 21;
  GradientBatch batch(n, d);
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) batch.set_row(i, rng.normal_vector(d, 2.0));
  FrameEncoder enc(WireMode::kRaw64, /*chunk_values=*/5);
  for (size_t lo = 0; lo < n; ++lo) {
    for (size_t hi = lo + 1; hi <= n; ++hi) {
      const GradientBatch view = batch.view(lo, hi);
      for (size_t r = 0; r < view.rows(); ++r)
        EXPECT_TRUE(bit_equal(round_trip(enc, view.row(r)), view.row(r)))
            << "view [" << lo << ", " << hi << ") row " << r;
    }
  }
}

TEST(Frame, ChunksReassembleInAnyOrder) {
  const Vector row = random_row(40, 5);
  FrameEncoder enc(WireMode::kRaw64, /*chunk_values=*/7);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  ASSERT_EQ(frames.count(), 6u);  // ceil(40 / 7)
  Vector out(row.size(), 0.0);
  for (size_t i = frames.count(); i-- > 0;) {  // reverse delivery order
    FrameView chunk;
    ASSERT_EQ(net::decode_frame(frames.frame(i), chunk), DecodeStatus::kOk);
    ASSERT_TRUE(net::apply_chunk(chunk, out));
  }
  EXPECT_TRUE(bit_equal(out, row));
}

TEST(Frame, BytesPerRowAccountsOverheadPerMode) {
  FrameEncoder raw(WireMode::kRaw64, 1024);
  const size_t d = 1000;
  EXPECT_EQ(raw.bytes_per_row(d), d * 8 + net::kFrameOverheadBytes);
}

// ---- checksum and decoder robustness ---------------------------------------

TEST(Frame, EveryByteFlipIsRejected) {
  // CRC-32 detects every burst of up to 32 bits, so a single flipped
  // byte — header, payload or the CRC itself — must always be caught.
  const Vector row = random_row(12, 13);
  FrameEncoder enc(WireMode::kRaw64, 16);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  const std::span<const uint8_t> good = frames.frame(0);
  std::vector<uint8_t> bad(good.begin(), good.end());
  for (size_t pos = 0; pos < bad.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      bad[pos] ^= mask;
      FrameView chunk;
      EXPECT_NE(net::decode_frame(bad, chunk), DecodeStatus::kOk)
          << "flip at byte " << pos << " mask " << int(mask);
      bad[pos] ^= mask;  // restore
    }
  }
}

TEST(Frame, TruncationAndGarbageAreRejectedWithoutReadingPast) {
  const Vector row = random_row(20, 17);
  FrameEncoder enc(WireMode::kRaw64, 32);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  const std::span<const uint8_t> good = frames.frame(0);
  FrameView chunk;
  for (size_t len = 0; len < good.size(); ++len)
    EXPECT_NE(net::decode_frame(good.first(len), chunk), DecodeStatus::kOk);
  const std::vector<uint8_t> garbage(200, 0xAB);
  EXPECT_NE(net::decode_frame(garbage, chunk), DecodeStatus::kOk);
  EXPECT_NE(net::decode_frame(std::span<const uint8_t>{}, chunk), DecodeStatus::kOk);
}

TEST(Frame, ChecksummedNonRaw64ModeByteIsMalformed) {
  // Byte 6 is the mode: raw64 (0) is the only encoding, so a frame that
  // carries any other mode under a valid CRC is malformed, not decoded.
  const Vector row = random_row(12, 19);
  FrameEncoder enc(WireMode::kRaw64, 16);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  const std::span<const uint8_t> good = frames.frame(0);
  ASSERT_EQ(good[6], 0u);
  for (const uint8_t reserved : {32, 33, 34, 35, 36, 37, 38, 39})
    EXPECT_EQ(good[reserved], 0u) << "reserved byte " << int(reserved);
  std::vector<uint8_t> forged(good.begin(), good.end());
  const size_t covered = forged.size() - 4;
  for (const uint8_t mode : {1, 2, 255}) {
    forged[6] = mode;
    const uint32_t crc = net::crc32(std::span<const uint8_t>(forged.data(), covered));
    std::memcpy(forged.data() + covered, &crc, sizeof crc);
    FrameView chunk;
    EXPECT_EQ(net::decode_frame(forged, chunk), DecodeStatus::kMalformed)
        << "mode " << int(mode);
  }
}

TEST(WireFuzz, MutatedFramesNeverCrashOrOverRead) {
  // Seeded fuzz: random byte flips, truncations and extensions over
  // valid frames.  The invariant is memory safety (ASAN watches this
  // file in CI) plus: whatever still decodes kOk must apply_chunk
  // without writing outside a correctly-sized row.
  Rng rng(2024);
  const size_t d = 64;
  const Vector row = random_row(d, 99);
  FrameEncoder enc(WireMode::kRaw64, /*chunk_values=*/19);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  std::vector<uint8_t> mutated;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::span<const uint8_t> base =
        frames.frame(rng.uniform_index(frames.count()));
    mutated.assign(base.begin(), base.end());
    const size_t flips = 1 + rng.uniform_index(8);
    for (size_t k = 0; k < flips; ++k)
      mutated[rng.uniform_index(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.uniform_index(255));
    if (rng.bernoulli(0.3))
      mutated.resize(rng.uniform_index(mutated.size() + 1));  // truncate
    else if (rng.bernoulli(0.2))
      mutated.resize(mutated.size() + 1 + rng.uniform_index(64), 0x5A);
    FrameView chunk;
    if (net::decode_frame(mutated, chunk) == DecodeStatus::kOk) {
      Vector out(d, 0.0);
      net::apply_chunk(chunk, out);  // must stay in bounds either way
    }
  }
}

// ---- simulated channel -----------------------------------------------------

FrameBuffer encode_frames(const Vector& row, size_t chunk_values) {
  FrameEncoder enc(WireMode::kRaw64, chunk_values);
  FrameBuffer frames;
  enc.encode_row(row, frames);
  return frames;
}

std::vector<uint32_t> all_indices(const FrameBuffer& frames) {
  std::vector<uint32_t> idx(frames.count());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);
  return idx;
}

TEST(SimulatedChannel, DeterministicPerSeed) {
  const Vector row = random_row(64, 21);
  const FrameBuffer frames = encode_frames(row, 8);
  const auto idx = all_indices(frames);
  const ChannelConfig faults{0.3, 0.3, 0.3, 0.5};
  auto run = [&](uint64_t seed) {
    SimulatedChannel channel(faults, seed);
    FrameBuffer out;
    ChannelStats stats;
    channel.transmit(frames, idx, out, stats);
    std::vector<std::vector<uint8_t>> delivered;
    for (size_t i = 0; i < out.count(); ++i)
      delivered.emplace_back(out.frame(i).begin(), out.frame(i).end());
    return std::pair(delivered, stats);
  };
  const auto [a, sa] = run(7);
  const auto [b, sb] = run(7);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(sa == sb);
}

TEST(SimulatedChannel, DropOneDeliversNothing) {
  const Vector row = random_row(32, 23);
  const FrameBuffer frames = encode_frames(row, 8);
  SimulatedChannel channel(ChannelConfig{1.0, 0.0, 0.0, 0.0}, 1);
  FrameBuffer out;
  ChannelStats stats;
  channel.transmit(frames, all_indices(frames), out, stats);
  EXPECT_EQ(out.count(), 0u);
  EXPECT_EQ(stats.frames_dropped, frames.count());
  EXPECT_EQ(stats.frames_delivered, 0u);
  EXPECT_EQ(stats.bytes_delivered, 0u);
}

TEST(SimulatedChannel, DuplicateOneDeliversEveryFrameTwice) {
  const Vector row = random_row(32, 25);
  const FrameBuffer frames = encode_frames(row, 8);
  SimulatedChannel channel(ChannelConfig{0.0, 1.0, 0.0, 0.0}, 1);
  FrameBuffer out;
  ChannelStats stats;
  channel.transmit(frames, all_indices(frames), out, stats);
  EXPECT_EQ(out.count(), 2 * frames.count());
  EXPECT_EQ(stats.frames_duplicated, frames.count());
}

TEST(SimulatedChannel, ReorderDeliversAPermutationOutOfOrder) {
  const Vector row = random_row(128, 27);
  const FrameBuffer frames = encode_frames(row, 8);  // 16 chunks
  SimulatedChannel channel(ChannelConfig{0.0, 0.0, 0.0, 1.0}, 3);
  FrameBuffer out;
  ChannelStats stats;
  channel.transmit(frames, all_indices(frames), out, stats);
  ASSERT_EQ(out.count(), frames.count());  // nothing lost, nothing duplicated
  std::vector<uint32_t> seqs;
  for (size_t i = 0; i < out.count(); ++i) {
    FrameView chunk;
    ASSERT_EQ(net::decode_frame(out.frame(i), chunk), DecodeStatus::kOk);
    seqs.push_back(chunk.seq);
  }
  EXPECT_FALSE(std::is_sorted(seqs.begin(), seqs.end()));  // actually reordered
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);  // a permutation
}

TEST(SimulatedChannel, CorruptOneFlipsExactlyOneBytePerCopy) {
  const Vector row = random_row(16, 29);
  const FrameBuffer frames = encode_frames(row, 32);  // single chunk
  SimulatedChannel channel(ChannelConfig{0.0, 0.0, 1.0, 0.0}, 5);
  FrameBuffer out;
  ChannelStats stats;
  channel.transmit(frames, all_indices(frames), out, stats);
  ASSERT_EQ(out.count(), 1u);
  const std::span<const uint8_t> sent = frames.frame(0);
  const std::span<const uint8_t> got = out.frame(0);
  ASSERT_EQ(sent.size(), got.size());
  size_t differing = 0;
  for (size_t i = 0; i < sent.size(); ++i) differing += sent[i] != got[i];
  EXPECT_EQ(differing, 1u);
  EXPECT_EQ(stats.frames_corrupted, 1u);
  // ...and the receiver must reject the flipped copy.
  FrameView chunk;
  EXPECT_NE(net::decode_frame(got, chunk), DecodeStatus::kOk);
}

// ---- edge transport --------------------------------------------------------

TEST(EdgeTransport, IdealLinkIsByteExact) {
  const Vector row = random_row(100, 31);
  LinkConfig link;  // raw64, no faults
  link.chunk_values = 9;
  EdgeTransport edge(link, 1);
  Vector out(row.size(), 1.0);  // pre-dirty: transfer must own every byte
  ChannelStats stats;
  EXPECT_TRUE(edge.transfer(row, out, stats));
  EXPECT_TRUE(bit_equal(out, row));
  EXPECT_EQ(stats.frames_sent, 12u);  // ceil(100 / 9)
  EXPECT_EQ(stats.frames_delivered, 12u);
  EXPECT_EQ(stats.rows_substituted, 0u);
  EXPECT_EQ(stats.retransmit_frames, 0u);
  EXPECT_GT(stats.bytes_sent, 100u * 8u);  // payload + framing overhead
}

TEST(EdgeTransport, LossyLinkReassemblesExactlyAfterRetransmits) {
  const Vector row = random_row(200, 33);
  LinkConfig link;
  link.chunk_values = 16;
  link.channel = ChannelConfig{0.3, 0.2, 0.2, 0.6};
  link.retransmit_limit = 20;  // enough rounds that assembly must succeed
  ChannelStats stats;
  size_t successes = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    EdgeTransport edge(link, seed);
    Vector out(row.size(), 0.0);
    if (edge.transfer(row, out, stats)) {
      ++successes;
      EXPECT_TRUE(bit_equal(out, row)) << "seed " << seed;
    }
  }
  EXPECT_EQ(successes, 10u);  // (1 - 0.3^21)^13 per row — a certainty
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_GT(stats.retransmit_frames, 0u);
  EXPECT_GT(stats.frames_corrupted, 0u);
}

TEST(EdgeTransport, ExhaustedRetransmitsSubstituteZeroRow) {
  const Vector row = random_row(50, 35);
  LinkConfig link;
  link.chunk_values = 10;
  link.channel = ChannelConfig{1.0, 0.0, 0.0, 0.0};  // everything vanishes
  link.retransmit_limit = 2;
  EdgeTransport edge(link, 1);
  Vector out(row.size(), 7.0);
  ChannelStats stats;
  EXPECT_FALSE(edge.transfer(row, out, stats));
  EXPECT_EQ(out, Vector(row.size(), 0.0));  // the §2.1 zero substitute
  EXPECT_EQ(stats.rows_substituted, 1u);
  EXPECT_EQ(stats.frames_sent, 15u);       // 5 chunks × 3 attempts
  EXPECT_EQ(stats.retransmit_frames, 10u); // attempts 2 and 3
}

TEST(EdgeTransport, TransferIsDeterministicPerSeed) {
  const Vector row = random_row(120, 37);
  LinkConfig link;
  link.chunk_values = 8;
  link.channel = ChannelConfig{0.4, 0.3, 0.3, 0.7};
  link.retransmit_limit = 3;
  auto run = [&](uint64_t seed) {
    EdgeTransport edge(link, seed);
    Vector out(row.size(), 0.0);
    ChannelStats stats;
    const bool ok = edge.transfer(row, out, stats);
    return std::tuple(ok, out, stats);
  };
  const auto [ok_a, out_a, stats_a] = run(11);
  const auto [ok_b, out_b, stats_b] = run(11);
  EXPECT_EQ(ok_a, ok_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_TRUE(stats_a == stats_b);
}

}  // namespace
}  // namespace dpbyz
