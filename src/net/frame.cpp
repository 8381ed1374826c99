#include "net/frame.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "utils/errors.hpp"

namespace dpbyz::net {

namespace {

// Little-endian field accessors.  The simulated links live inside one
// process, so "little-endian" is a documented convention rather than a
// portability layer; memcpy keeps them free of alignment traps either way.
template <typename T>
void store_le(uint8_t* dst, T value) {
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
T load_le(const uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

constexpr std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

uint32_t crc32(std::span<const uint8_t> bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : bytes) c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

DecodeStatus decode_frame(std::span<const uint8_t> frame, FrameView& out) {
  if (frame.size() < kFrameOverheadBytes) return DecodeStatus::kTooShort;
  const uint8_t* p = frame.data();
  if (load_le<uint32_t>(p + 0) != kFrameMagic) return DecodeStatus::kBadMagic;
  if (load_le<uint16_t>(p + 4) != kWireVersion) return DecodeStatus::kBadVersion;

  const uint32_t payload_bytes = load_le<uint32_t>(p + 28);
  // The declared extent must match the span exactly before the CRC can
  // be located — a truncated or padded frame is rejected here without
  // ever reading past frame.end().
  if (payload_bytes != frame.size() - kFrameOverheadBytes) return DecodeStatus::kTooShort;
  const uint32_t stored_crc = load_le<uint32_t>(p + kFrameHeaderBytes + payload_bytes);
  if (crc32(frame.first(kFrameHeaderBytes + payload_bytes)) != stored_crc)
    return DecodeStatus::kBadChecksum;

  if (p[6] != static_cast<uint8_t>(WireMode::kRaw64)) return DecodeStatus::kMalformed;
  out.seq = load_le<uint32_t>(p + 8);
  out.total = load_le<uint32_t>(p + 12);
  out.dim = load_le<uint32_t>(p + 16);
  out.offset = load_le<uint32_t>(p + 20);
  out.count = load_le<uint32_t>(p + 24);
  out.payload = frame.subspan(kFrameHeaderBytes, payload_bytes);

  if (out.total == 0 || out.seq >= out.total) return DecodeStatus::kMalformed;
  if (out.count * sizeof(double) != payload_bytes)
    return DecodeStatus::kMalformed;
  return DecodeStatus::kOk;
}

bool apply_chunk(const FrameView& chunk, std::span<double> row) {
  if (chunk.dim != row.size()) return false;
  if (chunk.offset > row.size() || chunk.count > row.size() - chunk.offset) return false;
  std::memcpy(row.data() + chunk.offset, chunk.payload.data(), chunk.count * sizeof(double));
  return true;
}

std::vector<uint8_t>& FrameBuffer::append() {
  if (count_ == bufs_.size()) bufs_.emplace_back();
  return bufs_[count_++];
}

FrameEncoder::FrameEncoder(WireMode /*mode*/, size_t chunk_values)
    : chunk_values_(chunk_values) {
  require(chunk_values >= 1, "FrameEncoder: chunk_values must be >= 1");
}

size_t FrameEncoder::chunks(size_t dim) const {
  return std::max<size_t>((dim + chunk_values_ - 1) / chunk_values_, 1);
}

size_t FrameEncoder::bytes_per_row(size_t dim) const {
  return dim * sizeof(double) + chunks(dim) * kFrameOverheadBytes;
}

size_t FrameEncoder::encode_row(std::span<const double> row, FrameBuffer& out) {
  require(!row.empty(), "FrameEncoder::encode_row: empty row");
  require(row.size() <= 0xFFFFFFFFull, "FrameEncoder::encode_row: dim exceeds u32");
  const uint32_t dim = static_cast<uint32_t>(row.size());
  const uint32_t total = static_cast<uint32_t>(chunks(row.size()));
  for (uint32_t seq = 0; seq < total; ++seq) {
    const uint32_t offset = seq * static_cast<uint32_t>(chunk_values_);
    const uint32_t count =
        static_cast<uint32_t>(std::min(chunk_values_, row.size() - offset));
    const size_t payload_bytes = count * sizeof(double);
    std::vector<uint8_t>& frame = out.append();
    frame.resize(kFrameOverheadBytes + payload_bytes);
    uint8_t* p = frame.data();
    store_le<uint32_t>(p + 0, kFrameMagic);
    store_le<uint16_t>(p + 4, kWireVersion);
    p[6] = static_cast<uint8_t>(WireMode::kRaw64);
    p[7] = 0;
    store_le<uint32_t>(p + 8, seq);
    store_le<uint32_t>(p + 12, total);
    store_le<uint32_t>(p + 16, dim);
    store_le<uint32_t>(p + 20, offset);
    store_le<uint32_t>(p + 24, count);
    store_le<uint32_t>(p + 28, static_cast<uint32_t>(payload_bytes));
    store_le<uint64_t>(p + 32, 0);  // reserved
    std::memcpy(p + kFrameHeaderBytes, row.data() + offset, payload_bytes);
    store_le<uint32_t>(p + kFrameHeaderBytes + payload_bytes,
                       crc32(std::span<const uint8_t>(p, kFrameHeaderBytes + payload_bytes)));
  }
  return total;
}

}  // namespace dpbyz::net
