#include "mp/frame.hpp"

#include <bit>

#include "util/require.hpp"

namespace treesvd::mp {
namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'S', 'V', 'F'};
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// xxHash64's primes: the lane round and the final avalanche below are its.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// One checksum step. For a fixed word it is a bijection of the lane (add,
/// rotate, multiply by an odd prime), and for a fixed lane a bijection of
/// the word (multiply by an odd prime, then the same three steps).
constexpr std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) noexcept {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

std::uint64_t load_word(const double* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// FNV-1a over a raw byte range: the 40-byte header checksum. The payload
/// checksum is frame_checksum, so both transports share one payload format.
std::uint64_t fnv1a_bytes(const std::uint8_t* p, std::size_t len) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>((v >> (8 * b)) & 0xffu);
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

void encode_header(const WireFrame& frame, std::uint64_t payload_sum, std::uint8_t* h) noexcept {
  h[0] = kMagic[0];
  h[1] = kMagic[1];
  h[2] = kMagic[2];
  h[3] = kMagic[3];
  h[4] = kWireVersion;
  h[5] = static_cast<std::uint8_t>(frame.kind);
  h[6] = 0;
  h[7] = 0;
  put_u64(h + 8, frame.tag);
  put_u64(h + 16, frame.seq);
  put_u64(h + 24, frame.aux);
  put_u64(h + 32, static_cast<std::uint64_t>(frame.payload.size()));
  put_u64(h + 40, fnv1a_bytes(h, 40));
  put_u64(h + 48, payload_sum);
}

void append_payload(const std::vector<double>& payload, std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  out.resize(base + payload.size() * sizeof(double));
  if (!payload.empty())
    std::memcpy(out.data() + base, payload.data(), payload.size() * sizeof(double));
}

}  // namespace

std::uint64_t frame_checksum(std::uint64_t tag, std::uint64_t seq, const double* data,
                             std::size_t count) noexcept {
  // Four independent lanes over consecutive words, so the multiplies of one
  // block overlap instead of chaining byte by byte. Tag and seq initialise
  // lanes 0 and 1.
  std::uint64_t v0 = lane_round(kPrime1 + kPrime2, tag);
  std::uint64_t v1 = lane_round(kPrime2, seq);
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kPrime1;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    v0 = lane_round(v0, load_word(data + i));
    v1 = lane_round(v1, load_word(data + i + 1));
    v2 = lane_round(v2, load_word(data + i + 2));
    v3 = lane_round(v3, load_word(data + i + 3));
  }
  // Every step from here on is again a bijection of h, and of the lane or
  // tail word it takes in: a change confined to one word, or to tag or seq
  // alone, reaches the result through bijections only and always changes it.
  std::uint64_t h = lane_round(lane_round(lane_round(v0, v1), v2), v3);
  for (; i < count; ++i) h = lane_round(h, load_word(data + i));
  h += static_cast<std::uint64_t>(count) * kPrime5;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<double> make_frame(std::uint64_t tag, std::uint64_t seq,
                               const std::vector<double>& payload) {
  std::vector<double> frame;
  frame.reserve(kFrameHeader + payload.size());
  frame.push_back(static_cast<double>(seq));
  frame.push_back(bits_to_double(frame_checksum(tag, seq, payload.data(), payload.size())));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool frame_valid(std::uint64_t tag, const std::vector<double>& frame, std::uint64_t* seq_out) {
  if (frame.size() < kFrameHeader) return false;
  const double seq_d = frame[0];
  // A corrupted seq field may be NaN or out of integer range; reject before
  // the cast (which would be UB).
  if (!(seq_d >= 0.0) || seq_d > 9.0e15) return false;
  const auto seq = static_cast<std::uint64_t>(seq_d);
  if (static_cast<double>(seq) != seq_d) return false;
  const std::uint64_t sum =
      frame_checksum(tag, seq, frame.data() + kFrameHeader, frame.size() - kFrameHeader);
  if (sum != double_to_bits(frame[1])) return false;
  *seq_out = seq;
  return true;
}

void encode_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  std::uint8_t header[kWireHeaderBytes];
  encode_header(frame,
                frame_checksum(frame.tag, frame.seq, frame.payload.data(), frame.payload.size()),
                header);
  out.insert(out.end(), header, header + kWireHeaderBytes);
  append_payload(frame.payload, out);
}

void encode_corrupted_wire_frame(const WireFrame& frame, const std::vector<double>& corrupted,
                                 std::vector<std::uint8_t>& out) {
  TREESVD_REQUIRE(corrupted.size() == frame.payload.size(),
                  "corrupted wire frame must keep the clean payload's length");
  std::uint8_t header[kWireHeaderBytes];
  // Checksums cover the *clean* payload; the wire carries the corrupted
  // bytes, so the receiver's payload-checksum check must fire.
  encode_header(frame,
                frame_checksum(frame.tag, frame.seq, frame.payload.data(), frame.payload.size()),
                header);
  out.insert(out.end(), header, header + kWireHeaderBytes);
  append_payload(corrupted, out);
}

WireDecode decode_wire_frame(const std::uint8_t* bytes, std::size_t len,
                             std::size_t max_payload_doubles, WireFrame* out,
                             std::size_t* consumed) {
  *consumed = 0;
  if (len < kWireHeaderBytes) return WireDecode::kNeedMore;
  if (std::memcmp(bytes, kMagic, 4) != 0) return WireDecode::kBadFrame;
  if (bytes[4] != kWireVersion) return WireDecode::kBadFrame;
  const std::uint8_t kind = bytes[5];
  if (kind < 1 || kind > kWireKindMax) return WireDecode::kBadFrame;
  // The header checksum vouches for the length field *before* it is trusted:
  // a corrupted count can never make the receiver wait for (or allocate) a
  // bogus gigantic frame, or walk off the end of the buffer.
  if (get_u64(bytes + 40) != fnv1a_bytes(bytes, 40)) return WireDecode::kBadFrame;
  const std::uint64_t count = get_u64(bytes + 32);
  if (count > max_payload_doubles) return WireDecode::kBadFrame;
  const std::size_t total = kWireHeaderBytes + static_cast<std::size_t>(count) * sizeof(double);
  if (len < total) return WireDecode::kNeedMore;
  out->kind = static_cast<WireKind>(kind);
  out->tag = get_u64(bytes + 8);
  out->seq = get_u64(bytes + 16);
  out->aux = get_u64(bytes + 24);
  out->payload.resize(static_cast<std::size_t>(count));
  if (count != 0)
    std::memcpy(out->payload.data(), bytes + kWireHeaderBytes,
                static_cast<std::size_t>(count) * sizeof(double));
  *consumed = total;
  if (frame_checksum(out->tag, out->seq, out->payload.data(), out->payload.size()) !=
      get_u64(bytes + 48))
    return WireDecode::kBadPayload;
  return WireDecode::kOk;
}

std::vector<double> pack_string(const std::string& s) {
  std::vector<double> out;
  out.reserve(1 + (s.size() + 7) / 8);
  out.push_back(bits_to_double(static_cast<std::uint64_t>(s.size())));
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && i + b < s.size(); ++b)
      word |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[i + b])) << (8 * b);
    out.push_back(bits_to_double(word));
  }
  return out;
}

std::string unpack_string(const std::vector<double>& payload) {
  if (payload.empty()) return {};
  std::uint64_t size = double_to_bits(payload[0]);
  // Defensive clamp: the payload rode a checksummed frame, but a short vector
  // must never drive an out-of-range read.
  const std::uint64_t capacity = (payload.size() - 1) * 8;
  if (size > capacity) size = capacity;
  std::string s;
  s.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t word = double_to_bits(payload[1 + i / 8]);
    s.push_back(static_cast<char>((word >> (8 * (i % 8))) & 0xffu));
  }
  return s;
}

}  // namespace treesvd::mp
