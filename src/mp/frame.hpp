#pragma once
// Wire frames of the socket backend (DESIGN.md section 15).
//
// A frame is a 56-byte header and a payload of doubles. The header carries
// the frame's kind, tag, per-(src, dst, tag) sequence number and an aux
// word, the payload's length and checksum, and its own FNV-1a, so a damaged
// length can never make the receiver read out of bounds, allocate a bogus
// gigantic payload or desynchronise silently. The payload checksum runs four
// 64-bit word lanes (xxHash64's round and primes) seeded with the tag and
// the sequence number; every step is a bijection of its lane, so a change
// confined to one payload word, or to tag or seq alone, is always detected.
// Those bytes come from another process, so the receiver checks all of them:
// a frame that fails any check is a broken stream, which the receiver
// closes. Frames reach a socket through write_wire_frames (header and
// payload gathered by one sendmsg, no staging copy) and leave it through
// WireReader (payloads read straight into the vector handed on);
// encode_wire_frame / decode_wire_frame are the byte-buffer reference the
// reader is tested against. Every parser has the same verdicts:
//   - kNeedMore: the buffer holds a frame prefix; read more bytes.
//   - kBadFrame: bad magic, version or kind, a bad header checksum, a length
//                past the receiver's bound, or a payload that fails its
//                checksum — close the stream.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace treesvd::mp {

/// Payload checksum over four 64-bit word lanes, with tag and seq as lane
/// initialisers and a final avalanche. Any change confined to one payload
/// word, or to tag or seq alone, changes the result (every step is a
/// bijection); wider damage is missed with probability about 2^-64.
std::uint64_t frame_checksum(std::uint64_t tag, std::uint64_t seq, const double* data,
                             std::size_t count) noexcept;

inline double bits_to_double(std::uint64_t bits) noexcept {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

inline std::uint64_t double_to_bits(double d) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// What a wire frame is for. Data and HELLO frames travel between rank
/// processes; the rest ride the per-rank control channel to/from the
/// launcher process.
enum class WireKind : std::uint8_t {
  kData = 1,       ///< payload frame (tag, seq, payload doubles)
  kHello = 2,      ///< first frame on a new connection (aux = sender rank)
  kHeartbeat = 3,  ///< child -> launcher liveness beacon
  kSync = 4,       ///< child -> launcher collective arrival (seq=generation, payload=[value])
  kSyncRelease = 5,  ///< launcher -> child collective release (seq=generation, payload=[sum])
  kPublish = 6,    ///< child -> launcher durable blob (aux = key, payload = blob)
  kFinished = 7,   ///< launcher -> child: rank `aux` has exited (normally or not)
  kAbort = 8,      ///< launcher -> child: the world is aborting
  kKilled = 9,     ///< child -> launcher: planned kill firing (aux = op, payload = stats)
  kError = 10,     ///< child -> launcher: program exception (aux = kind, payload = message)
  kExit = 11,      ///< child -> launcher: normal completion (payload = stats)
};
inline constexpr std::uint8_t kWireKindMax = 11;

/// Fixed wire header: magic(4) version(1) kind(1) pad(2) tag(8) seq(8)
/// aux(8) payload_count(8) header_fnv(8) payload_checksum(8).
inline constexpr std::size_t kWireHeaderBytes = 56;
/// Version 4 drops version 3's NACK and ack kinds and numbers the rest
/// 1-11; version 2 added the word-lane payload checksum (version 1 used
/// byte-wise FNV-1a). A frame of any other version is kBadFrame.
inline constexpr std::uint8_t kWireVersion = 4;

/// One decoded (or to-be-encoded) socket frame.
struct WireFrame {
  WireKind kind = WireKind::kData;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t aux = 0;
  std::vector<double> payload;
};

enum class WireDecode {
  kOk,        ///< a full valid frame was decoded
  kNeedMore,  ///< the buffer ends mid-frame; append bytes and retry
  kBadFrame,  ///< a check failed: the stream is broken, close it
  kClosed,    ///< WireReader only: the stream ended (EOF or a read error)
};

/// Appends the encoded frame to `out`.
void encode_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Decodes the frame at the front of [bytes, bytes+len). Never reads past
/// `len`. On kOk fills `out` and sets `consumed` to the frame size; on
/// kNeedMore/kBadFrame leaves `consumed` zero.
WireDecode decode_wire_frame(const std::uint8_t* bytes, std::size_t len,
                             std::size_t max_payload_doubles, WireFrame* out,
                             std::size_t* consumed);

/// A frame to write: header fields plus a view of the caller's payload, which
/// must stay alive until write_wire_frames returns.
struct WireOut {
  WireKind kind = WireKind::kData;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t aux = 0;
  std::span<const double> payload;
};

/// Writes `frames` to the stream socket `fd`: each 56-byte header followed
/// by its payload, gathered straight from the callers' vectors by sendmsg
/// (one call unless the kernel takes the bytes in parts). EINTR is retried,
/// a full nonblocking socket is waited on, SIGPIPE is suppressed. False on
/// any error: a peer may die at any moment, so callers treat failure as a
/// dead peer and lean on the abort machinery, never on write success.
bool write_wire_frames(int fd, std::span<const WireOut> frames) noexcept;

/// Incremental reader of one byte stream of wire frames. One recv fills a
/// fixed staging buffer that holds whole small frames and the first bytes
/// of a large one; each header is checked (decode_wire_frame's rules)
/// before its payload is allocated, and the rest of a large payload is read
/// straight into the vector the frame hands on, with the checksum checked
/// in place. Yields exactly what decode_wire_frame yields on the same bytes.
class WireReader {
 public:
  explicit WireReader(std::size_t max_payload_doubles);

  /// Reads the next frame off the nonblocking stream `fd`. kOk fills `out`;
  /// kNeedMore means nothing more is readable now; kBadFrame (a failed
  /// check) and kClosed (EOF, also mid-frame, or a read error) end the
  /// stream.
  WireDecode next(int fd, WireFrame* out);

 private:
  std::size_t max_payload_doubles_;
  std::vector<std::uint8_t> stage_;
  std::size_t begin_ = 0;  ///< unread staged bytes are [begin_, end_)
  std::size_t end_ = 0;
  bool in_payload_ = false;  ///< cur_'s header is read, its payload is not
  WireFrame cur_;
  std::uint64_t payload_sum_ = 0;
  std::size_t filled_ = 0;  ///< payload bytes of cur_ read so far
};

/// Packs a UTF-8 string into doubles (length + 8 bytes per double) so error
/// messages can ride the payload of a wire frame. Exact round trip.
std::vector<double> pack_string(const std::string& s);
std::string unpack_string(const std::vector<double>& payload);

}  // namespace treesvd::mp
