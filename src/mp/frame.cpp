#include "mp/frame.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <bit>
#include <cerrno>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace treesvd::mp {
namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'S', 'V', 'F'};
/// WireReader's staging buffer: whole small frames (HELLO, control) and the
/// first bytes of a large one arrive in one recv.
constexpr std::size_t kStageBytes = 4096;
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
/// checksum is frame_checksum.
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

void encode_header(WireKind kind, std::uint64_t tag, std::uint64_t seq, std::uint64_t aux,
                   std::size_t count, std::uint64_t payload_sum, std::uint8_t* h) noexcept {
  h[0] = kMagic[0];
  h[1] = kMagic[1];
  h[2] = kMagic[2];
  h[3] = kMagic[3];
  h[4] = kWireVersion;
  h[5] = static_cast<std::uint8_t>(kind);
  h[6] = 0;
  h[7] = 0;
  put_u64(h + 8, tag);
  put_u64(h + 16, seq);
  put_u64(h + 24, aux);
  put_u64(h + 32, static_cast<std::uint64_t>(count));
  put_u64(h + 40, fnv1a_bytes(h, 40));
  put_u64(h + 48, payload_sum);
}

/// The header rules every parser applies to the 56 bytes at `h`: magic,
/// version, kind, then the header checksum vouches for the length field
/// *before* it is trusted — a corrupted count can never make the receiver
/// wait for (or allocate) a bogus gigantic frame, or walk off the end of a
/// buffer — and last the receiver's payload bound. False is kBadFrame; true
/// fills the frame's kind, tag, seq and aux, its payload count and checksum.
bool check_header(const std::uint8_t* h, std::size_t max_payload_doubles, WireFrame* out,
                  std::size_t* count, std::uint64_t* payload_sum) noexcept {
  if (std::memcmp(h, kMagic, 4) != 0) return false;
  if (h[4] != kWireVersion) return false;
  const std::uint8_t kind = h[5];
  if (kind < 1 || kind > kWireKindMax) return false;
  if (get_u64(h + 40) != fnv1a_bytes(h, 40)) return false;
  const std::uint64_t n = get_u64(h + 32);
  if (n > max_payload_doubles) return false;
  out->kind = static_cast<WireKind>(kind);
  out->tag = get_u64(h + 8);
  out->seq = get_u64(h + 16);
  out->aux = get_u64(h + 24);
  *count = static_cast<std::size_t>(n);
  *payload_sum = get_u64(h + 48);
  return true;
}

/// Sends every byte `iov` describes, advancing it in place.
bool send_all(int fd, iovec* iov, std::size_t count) noexcept {
  while (count != 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking fd with a full buffer: wait for writability (a dead
        // peer surfaces as POLLERR/EPIPE on the retry, never a hang).
        pollfd pf{fd, POLLOUT, 0};
        (void)::poll(&pf, 1, 1000);
        continue;
      }
      return false;
    }
    auto left = static_cast<std::size_t>(n);
    while (count != 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count != 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
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

void encode_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  const std::vector<double>& p = frame.payload;
  std::uint8_t header[kWireHeaderBytes];
  encode_header(frame.kind, frame.tag, frame.seq, frame.aux, p.size(),
                frame_checksum(frame.tag, frame.seq, p.data(), p.size()), header);
  out.insert(out.end(), header, header + kWireHeaderBytes);
  const std::size_t base = out.size();
  out.resize(base + p.size() * sizeof(double));
  if (!p.empty()) std::memcpy(out.data() + base, p.data(), p.size() * sizeof(double));
}

WireDecode decode_wire_frame(const std::uint8_t* bytes, std::size_t len,
                             std::size_t max_payload_doubles, WireFrame* out,
                             std::size_t* consumed) {
  *consumed = 0;
  if (len < kWireHeaderBytes) return WireDecode::kNeedMore;
  std::size_t count = 0;
  std::uint64_t payload_sum = 0;
  if (!check_header(bytes, max_payload_doubles, out, &count, &payload_sum))
    return WireDecode::kBadFrame;
  const std::size_t total = kWireHeaderBytes + count * sizeof(double);
  if (len < total) return WireDecode::kNeedMore;
  out->payload.resize(count);
  if (count != 0)
    std::memcpy(out->payload.data(), bytes + kWireHeaderBytes, count * sizeof(double));
  if (frame_checksum(out->tag, out->seq, out->payload.data(), out->payload.size()) != payload_sum)
    return WireDecode::kBadFrame;
  *consumed = total;
  return WireDecode::kOk;
}

bool write_wire_frames(int fd, std::span<const WireOut> frames) noexcept {
  constexpr std::size_t kBatch = 4;
  std::uint8_t headers[kBatch][kWireHeaderBytes];
  iovec iov[2 * kBatch];
  while (!frames.empty()) {
    const std::size_t n = std::min(frames.size(), kBatch);
    for (std::size_t i = 0; i < n; ++i) {
      const WireOut& f = frames[i];
      encode_header(f.kind, f.tag, f.seq, f.aux, f.payload.size(),
                    frame_checksum(f.tag, f.seq, f.payload.data(), f.payload.size()), headers[i]);
      iov[2 * i] = {headers[i], kWireHeaderBytes};
      iov[2 * i + 1] = {const_cast<double*>(f.payload.data()), f.payload.size() * sizeof(double)};
    }
    if (!send_all(fd, iov, 2 * n)) return false;
    frames = frames.subspan(n);
  }
  return true;
}

WireReader::WireReader(std::size_t max_payload_doubles)
    : max_payload_doubles_(max_payload_doubles), stage_(kStageBytes) {}

WireDecode WireReader::next(int fd, WireFrame* out) {
  for (;;) {
    ssize_t n = 0;
    if (!in_payload_) {
      if (end_ - begin_ >= kWireHeaderBytes) {
        std::size_t count = 0;
        if (!check_header(stage_.data() + begin_, max_payload_doubles_, &cur_, &count,
                          &payload_sum_))
          return WireDecode::kBadFrame;  // begin_ stays put: the verdict sticks
        begin_ += kWireHeaderBytes;
        cur_.payload.resize(count);
        filled_ = 0;
        in_payload_ = true;
        continue;
      }
      // Too few bytes for a header: keep them at the front, refill behind.
      std::memmove(stage_.data(), stage_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      n = ::recv(fd, stage_.data() + end_, stage_.size() - end_, 0);
      if (n > 0) end_ += static_cast<std::size_t>(n);
    } else {
      auto* dst = reinterpret_cast<std::uint8_t*>(cur_.payload.data());
      const std::size_t total = cur_.payload.size() * sizeof(double);
      const std::size_t staged = std::min(total - filled_, end_ - begin_);
      if (staged != 0) std::memcpy(dst + filled_, stage_.data() + begin_, staged);
      begin_ += staged;
      filled_ += staged;
      if (filled_ == total) {
        if (frame_checksum(cur_.tag, cur_.seq, cur_.payload.data(), cur_.payload.size()) !=
            payload_sum_)
          return WireDecode::kBadFrame;  // in_payload_ stays set: the verdict sticks
        in_payload_ = false;
        *out = std::move(cur_);
        return WireDecode::kOk;
      }
      // The staging buffer is spent: the rest of the payload goes straight
      // into its vector, and whatever follows it into the staging buffer.
      begin_ = 0;
      end_ = 0;
      iovec iov[2] = {{dst + filled_, total - filled_}, {stage_.data(), stage_.size()}};
      n = ::readv(fd, iov, 2);
      if (n > 0) {
        const auto got = static_cast<std::size_t>(n);
        const std::size_t into_payload = std::min(got, total - filled_);
        filled_ += into_payload;
        end_ = got - into_payload;
      }
    }
    if (n > 0) continue;
    if (n == 0) return WireDecode::kClosed;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? WireDecode::kNeedMore : WireDecode::kClosed;
  }
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
