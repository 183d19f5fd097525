#pragma once
// Shared frame format for the reliable transports (DESIGN.md section 15).
//
// Both transport backends protect payloads the same way: a frame carries a
// per-(src, dst, tag) sequence number and a checksum seeded with the tag and
// the sequence number. The checksum runs four 64-bit word lanes (xxHash64's
// round and primes) whose every step is a bijection of its lane, so a change
// confined to one payload word, or to tag or seq alone, is always detected
// at the receiver and recovered through the NACK/resend path.
//
// Two encodings share that format:
//
//  * The in-process "double frame" (make_frame / frame_valid): a 2-double
//    [seq, checksum] header prepended to the payload, carried through the
//    shared-memory mailboxes. This is the original reliable-transport frame.
//  * The byte-stream "wire frame": the socket backend's length-prefixed
//    encoding (wire version 3: the word-lane payload checksum and the kAck
//    kind). The header carries its own FNV-1a (so a corrupted length can
//    never make the receiver read out of bounds or desynchronise silently),
//    and the payload checksum is the *same* frame_checksum the in-process
//    frames use. Frames reach a socket through write_wire_frames (header
//    and payload gathered by one sendmsg, no staging copy) and leave it
//    through WireReader (payloads read straight into the vector handed on);
//    encode_wire_frame / decode_wire_frame are the byte-buffer reference
//    the reader is tested against. Every parser distinguishes the same
//    failure classes so the receiver can pick the right recovery:
//      - kNeedMore:   the buffer holds a frame prefix; read more bytes.
//      - kBadPayload: header intact, payload corrupted — skip exactly this
//                     frame and recover the payload via NACK/resend.
//      - kBadFrame:   the stream is desynchronised (bad magic, bad header
//                     checksum, oversized length, unknown kind) — the only
//                     safe recovery is to kill the connection and let the
//                     retry path re-deliver.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace treesvd::mp {

/// Doubles of header prepended to an in-process reliable frame.
inline constexpr std::size_t kFrameHeader = 2;  ///< [seq, checksum]

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

/// Frames a clean payload for the in-process reliable transport.
std::vector<double> make_frame(std::uint64_t tag, std::uint64_t seq,
                               const std::vector<double>& payload);

/// Validates an in-process frame; on success reports its sequence number.
bool frame_valid(std::uint64_t tag, const std::vector<double>& frame, std::uint64_t* seq_out);

// ---------------------------------------------------------------------------
// Byte-stream wire frames (socket backend).

/// What a wire frame is for. Data/NACK frames travel between rank processes;
/// the rest ride the per-rank control channel to/from the launcher process.
enum class WireKind : std::uint8_t {
  kData = 1,       ///< payload frame (tag, seq, payload doubles)
  kNack = 2,       ///< receiver asks the sender to retransmit (tag, seq=expected, aux=attempt)
  kHello = 3,      ///< first frame on a new connection (aux = sender rank)
  kHeartbeat = 4,  ///< child -> launcher liveness beacon
  kSync = 5,       ///< child -> launcher collective arrival (seq=generation, payload=[value])
  kSyncRelease = 6,  ///< launcher -> child collective release (seq=generation, payload=[sum])
  kPublish = 7,    ///< child -> launcher durable blob (aux = key, payload = blob)
  kFinished = 8,   ///< launcher -> child: rank `aux` has exited (normally or not)
  kAbort = 9,      ///< launcher -> child: the world is aborting
  kKilled = 10,    ///< child -> launcher: planned kill firing (aux = op, payload = stats)
  kError = 11,     ///< child -> launcher: program exception (aux = kind, payload = message)
  kExit = 12,      ///< child -> launcher: normal completion (payload = stats)
  kAck = 13,       ///< receiver -> sender: consumed frames (payload = tag, seq bit pairs)
};
inline constexpr std::uint8_t kWireKindMax = 13;

/// Fixed wire header: magic(4) version(1) kind(1) pad(2) tag(8) seq(8)
/// aux(8) payload_count(8) header_fnv(8) payload_checksum(8).
inline constexpr std::size_t kWireHeaderBytes = 56;
/// Version 3 adds kAck to version 2's word-lane payload checksum (version 1
/// used byte-wise FNV-1a); a frame of any other version is kBadFrame.
inline constexpr std::uint8_t kWireVersion = 3;

/// One decoded (or to-be-encoded) socket frame.
struct WireFrame {
  WireKind kind = WireKind::kData;
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t aux = 0;
  std::vector<double> payload;
};

enum class WireDecode {
  kOk,          ///< a full valid frame was decoded
  kNeedMore,    ///< the buffer ends mid-frame; append bytes and retry
  kBadPayload,  ///< header valid, payload checksum mismatch: skip this frame
  kBadFrame,    ///< stream desync: close the connection
  kClosed,      ///< WireReader only: the stream ended (EOF or a read error)
};

/// Appends the encoded frame to `out`.
void encode_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Encodes a data frame whose *checksums* cover `clean` while the bytes on
/// the wire carry `corrupted` — the socket backend's physical corruption
/// injection (the receiver must detect the mismatch and NACK).
void encode_corrupted_wire_frame(const WireFrame& frame, const std::vector<double>& corrupted,
                                 std::vector<std::uint8_t>& out);

/// Decodes the frame at the front of [bytes, bytes+len). Never reads past
/// `len`. On kOk fills `out` and sets `consumed` to the frame size; on
/// kBadPayload sets `consumed` to the (trustworthy) frame size so the caller
/// can skip it; on kNeedMore/kBadFrame leaves `consumed` zero.
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
  std::span<const double> payload;  ///< what the payload checksum covers
  /// Bytes written in the payload's place when set (a damaged copy of the
  /// same length: corruption injection, as encode_corrupted_wire_frame).
  const double* on_wire = nullptr;
};

/// Writes `frames` to the stream socket `fd`: each 56-byte header followed
/// by its payload, gathered straight from the callers' vectors by sendmsg
/// (one call unless the kernel takes the bytes in parts). EINTR is retried,
/// a full nonblocking socket is waited on, SIGPIPE is suppressed. False on
/// any error: a peer may die at any moment, so callers treat failure as a
/// lost frame and lean on the NACK/abort machinery, never on write success.
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
  /// kBadPayload fills its kind/tag/seq/aux and skips the frame; kNeedMore
  /// means nothing more is readable now; kBadFrame (desync) and kClosed
  /// (EOF, also mid-frame, or a read error) end the stream.
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
