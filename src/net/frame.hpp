// frame.hpp — compact framed serialization for gradient rows.
//
// One GradientBatch row travels as a sequence of self-describing frames
// so a lossy, reordering transport can deliver them in any order, drop
// some, or corrupt bytes in flight — the receiver reassembles by chunk
// sequence number and a CRC-32 over every frame rejects corruption
// outright (a corrupted frame is indistinguishable from a dropped one).
//
// Frame layout (little-endian, kFrameHeaderBytes of header, then the
// payload, then a trailing CRC-32 over header + payload):
//
//   off  size  field
//     0     4  magic 0x44504258 ("DPBX")
//     4     2  version (kWireVersion)
//     6     1  wire mode (WireMode; 0 = raw64, the only encoding)
//     7     1  reserved (0)
//     8     4  seq           chunk index within the row, [0, total)
//    12     4  total         chunks this row was split into
//    16     4  dim           full row dimension (receiver-side check)
//    20     4  offset        first coordinate carried by this chunk
//    24     4  count         coordinates in this chunk
//    28     4  payload_bytes
//    32     8  reserved (0)
//    40     …  payload
//     …     4  crc32 over bytes [0, kFrameHeaderBytes + payload_bytes)
//
// The payload is raw64: count doubles, a memcpy of the IEEE-754 bit
// patterns, so decode is byte-exact, including signed zeros and
// subnormals.  A checksummed frame whose mode byte is not 0 is malformed.
//
// decode_frame never throws and never reads outside the given span —
// arbitrary garbage (fuzzed, truncated, bit-flipped) yields a non-kOk
// status; the ASAN CI leg runs the fuzz sweep in tests/test_net.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dpbyz::net {

inline constexpr uint32_t kFrameMagic = 0x44504258u;  // "DPBX"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 40;
/// Header + trailing CRC: the fixed per-frame byte overhead.
inline constexpr size_t kFrameOverheadBytes = kFrameHeaderBytes + 4;

/// The frame encoding; raw64 is the only one (mode byte 0).
enum class WireMode : uint8_t { kRaw64 = 0 };

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the frame
/// checksum.  Local table implementation, no external dependency.
uint32_t crc32(std::span<const uint8_t> bytes);

/// Parsed header of a validated frame; `payload` aliases the frame bytes.
struct FrameView {
  uint32_t seq = 0;
  uint32_t total = 0;
  uint32_t dim = 0;
  uint32_t offset = 0;
  uint32_t count = 0;
  std::span<const uint8_t> payload;
};

enum class DecodeStatus : uint8_t {
  kOk = 0,
  kTooShort,     ///< smaller than header + CRC
  kBadMagic,     ///< not a frame at all
  kBadVersion,   ///< future / corrupted version field
  kBadChecksum,  ///< CRC mismatch — treat as dropped
  kMalformed,    ///< CRC passed but fields are inconsistent
};

/// Validates and parses one frame.  Never throws, never reads outside
/// `frame`; on any non-kOk status `out` is unspecified.
DecodeStatus decode_frame(std::span<const uint8_t> frame, FrameView& out);

/// Copies one validated chunk into `row` (`row.size()` must equal
/// `chunk.dim`).  Returns false — without touching `row` — when the
/// chunk's coordinate range does not fit the row (a forged-but-checksummed
/// frame cannot over-write).
bool apply_chunk(const FrameView& chunk, std::span<double> row);

/// Reusable frame storage: `append()` hands back retained per-frame
/// buffers, so encode → clear → encode cycles allocate nothing once the
/// buffers have warmed up at a given row shape.
class FrameBuffer {
 public:
  void clear() { count_ = 0; }
  size_t count() const { return count_; }
  std::span<const uint8_t> frame(size_t i) const { return bufs_[i]; }
  std::vector<uint8_t>& append();

 private:
  std::vector<std::vector<uint8_t>> bufs_;
  size_t count_ = 0;
};

/// Row encoder: splits one row into `chunk_values` coordinates per
/// frame.  Allocates nothing itself; the FrameBuffer's retained frames
/// make steady-state encoding allocation-free.
class FrameEncoder {
 public:
  /// `mode` names the encoding (raw64 is the only one).  Throws
  /// std::invalid_argument when chunk_values == 0.
  FrameEncoder(WireMode mode, size_t chunk_values = 1024);

  /// Encodes `row` as frames appended to `out` (not cleared first).
  /// Returns the number of frames appended (== chunks(row.size())).
  size_t encode_row(std::span<const double> row, FrameBuffer& out);

  /// Chunks a row of dimension `dim` splits into.
  size_t chunks(size_t dim) const;
  /// Total frame bytes (payload + per-frame overhead) for one row.
  size_t bytes_per_row(size_t dim) const;

 private:
  size_t chunk_values_;
};

}  // namespace dpbyz::net
