// Contention stress for the message-passing runtime: many ranks hammering
// tagged send/recv, barriers and allreduce concurrently. Functionally these
// tests assert delivery and collective correctness; their main job is to give
// ThreadSanitizer dense interleavings over mp::World's mailboxes and sync
// state (this binary is the dedicated target of the TSan CI job).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "mp/frame.hpp"
#include "mp/message_passing.hpp"
#include "svd/serve.hpp"
#include "util/rng.hpp"

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS
#include "analysis/fuzz.hpp"
#endif

namespace treesvd {
namespace {

/// Payload encoding so the receiver can verify exactly who sent what.
double encode(int src, int round, int k) { return src * 1e6 + round * 1e3 + k; }

TEST(MpStress, AllToAllTaggedRounds) {
  const int ranks = 8;
  const int rounds = 40;
  mp::World world(ranks);
  world.run([&](mp::Context& ctx) {
    const int me = ctx.rank();
    for (int round = 0; round < rounds; ++round) {
      const auto tag = static_cast<std::uint64_t>(round);
      for (int dst = 0; dst < ranks; ++dst)
        if (dst != me) ctx.send(dst, tag, {encode(me, round, 0)});
      for (int src = ranks - 1; src >= 0; --src) {
        if (src == me) continue;
        const auto msg = ctx.recv(src, tag);
        ASSERT_EQ(msg.size(), 1u);
        EXPECT_DOUBLE_EQ(msg[0], encode(src, round, 0));
      }
    }
  });
  EXPECT_EQ(world.delivered(),
            static_cast<std::size_t>(ranks) * (ranks - 1) * static_cast<std::size_t>(rounds));
}

TEST(MpStress, PerTagFifoUnderInterleavedTags) {
  // Each rank floods its ring successor with messages across several tags in
  // one order and the successor drains them tag-by-tag in another; FIFO must
  // hold within each (src, tag) stream regardless of global interleaving.
  const int ranks = 6;
  const int per_tag = 25;
  const int tags = 4;
  mp::World world(ranks);
  world.run([&](mp::Context& ctx) {
    const int me = ctx.rank();
    const int dst = (me + 1) % ranks;
    const int src = (me + ranks - 1) % ranks;
    for (int k = 0; k < per_tag; ++k)
      for (int tag = 0; tag < tags; ++tag)
        ctx.send(dst, static_cast<std::uint64_t>(tag), {encode(me, tag, k)});
    for (int tag = tags - 1; tag >= 0; --tag) {
      for (int k = 0; k < per_tag; ++k) {
        const auto msg = ctx.recv(src, static_cast<std::uint64_t>(tag));
        ASSERT_EQ(msg.size(), 1u);
        EXPECT_DOUBLE_EQ(msg[0], encode(src, tag, k));
      }
    }
  });
  EXPECT_EQ(world.delivered(), static_cast<std::size_t>(ranks) * per_tag * tags);
}

TEST(MpStress, BarrierSeparatesPhases) {
  // Ranks bump a per-phase counter, then barrier; after the barrier every
  // rank must observe the phase complete. A missed barrier or a racy
  // generation update shows up as a violation (and as a TSan report).
  const int ranks = 8;
  const int phases = 50;
  mp::World world(ranks);
  std::vector<std::atomic<int>> arrived(phases);
  std::atomic<int> violations{0};
  world.run([&](mp::Context& ctx) {
    for (int p = 0; p < phases; ++p) {
      arrived[static_cast<std::size_t>(p)].fetch_add(1, std::memory_order_relaxed);
      ctx.barrier();
      if (arrived[static_cast<std::size_t>(p)].load(std::memory_order_relaxed) != ranks)
        violations.fetch_add(1, std::memory_order_relaxed);
      ctx.barrier();
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(MpStress, AllreduceUnderTrafficIsExact) {
  // Interleave allreduce rounds with point-to-point chatter so collectives
  // and mailbox traffic contend for the world concurrently.
  const int ranks = 8;
  const int rounds = 30;
  mp::World world(ranks);
  world.run([&](mp::Context& ctx) {
    const int me = ctx.rank();
    const int dst = (me + 1) % ranks;
    const int src = (me + ranks - 1) % ranks;
    for (int round = 0; round < rounds; ++round) {
      ctx.send(dst, static_cast<std::uint64_t>(1000 + round), {encode(me, round, 1)});
      const double sum = ctx.allreduce_sum(static_cast<double>(me + 1));
      EXPECT_DOUBLE_EQ(sum, ranks * (ranks + 1) / 2.0);
      const auto msg = ctx.recv(src, static_cast<std::uint64_t>(1000 + round));
      EXPECT_DOUBLE_EQ(msg[0], encode(src, round, 1));
    }
  });
}

// --- Chaos section: a rank kill under dense traffic. TSan runs this binary,
// --- so these interleavings also prove the abort path race-free.

TEST(MpStressChaos, KillUnderLoadAbortsDeterministically) {
  // A rank dies mid-traffic; the world must join everyone and surface the
  // RankKilledError, never hang — under dense mailbox contention.
  const int ranks = 6;
  mp::World world(ranks);
  mp::FaultPlan plan;
  plan.kill_rank = 3;
  plan.kill_at_op = 40;
  world.set_fault_plan(plan);
  EXPECT_THROW(world.run([&](mp::Context& ctx) {
                 const int me = ctx.rank();
                 const int dst = (me + 1) % ranks;
                 const int src = (me + ranks - 1) % ranks;
                 for (int round = 0; round < 100; ++round) {
                   ctx.send(dst, static_cast<std::uint64_t>(round), {encode(me, round, 0)});
                   const auto msg = ctx.recv(src, static_cast<std::uint64_t>(round));
                   EXPECT_DOUBLE_EQ(msg[0], encode(src, round, 0));
                 }
               }),
               mp::RankKilledError);
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.recovery_stats().kills, 1u);
}

TEST(MpStress, MixedCollectivesAndRandomizedTraffic) {
  // Deterministic per-rank RNG picks who messages whom each round; every rank
  // replays every peer's choices so receives match sends exactly without any
  // out-of-band coordination — maximum concurrent pressure on the mailboxes,
  // barrier and reduce paths together.
  const int ranks = 10;
  const int rounds = 20;
  mp::World world(ranks);
  world.run([&](mp::Context& ctx) {
    const int me = ctx.rank();
    for (int round = 0; round < rounds; ++round) {
      std::vector<int> target(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        Rng rng(static_cast<std::uint64_t>(r * 7919 + round));
        target[static_cast<std::size_t>(r)] =
            (r + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks - 1)))) % ranks;
      }
      ctx.send(target[static_cast<std::size_t>(me)],
               static_cast<std::uint64_t>(round) << 8 | static_cast<std::uint64_t>(me),
               {encode(me, round, 2)});
      for (int src = 0; src < ranks; ++src) {
        if (target[static_cast<std::size_t>(src)] != me) continue;
        const auto msg =
            ctx.recv(src, static_cast<std::uint64_t>(round) << 8 | static_cast<std::uint64_t>(src));
        EXPECT_DOUBLE_EQ(msg[0], encode(src, round, 2));
      }
      const double sum = ctx.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(sum, static_cast<double>(ranks));
      ctx.barrier();
    }
  });
}

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS

// --- Fuzzed section: the same transport contracts under the seeded schedule
// --- fuzzer injecting yields at every send/recv/sync decision point. Fixed
// --- seeds keep any failure replayable.

TEST(MpStressFuzzed, AllToAllSurvivesPerturbedSchedules) {
  const int ranks = 6;
  const int rounds = 15;
  for (const std::uint64_t seed : {std::uint64_t{11}, std::uint64_t{2026}}) {
    analysis::FuzzPlan plan;
    plan.seed = seed;
    analysis::ScopedFuzzer fuzz(plan);
    mp::World world(ranks);
    world.run([&](mp::Context& ctx) {
      const int me = ctx.rank();
      for (int round = 0; round < rounds; ++round) {
        const auto tag = static_cast<std::uint64_t>(round);
        for (int dst = 0; dst < ranks; ++dst)
          if (dst != me) ctx.send(dst, tag, {encode(me, round, 0)});
        for (int src = ranks - 1; src >= 0; --src) {
          if (src == me) continue;
          const auto msg = ctx.recv(src, tag);
          ASSERT_EQ(msg.size(), 1u);
          EXPECT_DOUBLE_EQ(msg[0], encode(src, round, 0));
        }
      }
    });
    EXPECT_EQ(world.delivered(),
              static_cast<std::size_t>(ranks) * (ranks - 1) * static_cast<std::size_t>(rounds))
        << "seed=" << seed;
    EXPECT_GT(fuzz->decisions(), 0u) << "fuzzer saw no transport decision points";
  }
}

TEST(MpStressFuzzed, BarriersAndAllreduceSurvivePerturbedSchedules) {
  const int ranks = 6;
  const int phases = 20;
  analysis::FuzzPlan plan;
  plan.seed = 404;
  analysis::ScopedFuzzer fuzz(plan);
  mp::World world(ranks);
  std::vector<std::atomic<int>> arrived(phases);
  std::atomic<int> violations{0};
  world.run([&](mp::Context& ctx) {
    for (int p = 0; p < phases; ++p) {
      arrived[static_cast<std::size_t>(p)].fetch_add(1, std::memory_order_relaxed);
      ctx.barrier();
      if (arrived[static_cast<std::size_t>(p)].load(std::memory_order_relaxed) != ranks)
        violations.fetch_add(1, std::memory_order_relaxed);
      const double sum = ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
      EXPECT_DOUBLE_EQ(sum, ranks * (ranks + 1) / 2.0);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(MpStressFuzzed, FaultPlanUnaffectedByFuzzSalt) {
  // The fuzzer's decision salt (hook_ops_) is deliberately separate from the
  // op counter that keys the kill fault schedule: the same fault plan must
  // fire at the same op with and without a fuzzer installed.
  const int ranks = 4;
  const auto run_once = [&](bool fuzzed) {
    mp::World world(ranks);
    mp::FaultPlan plan;
    plan.kill_rank = 2;
    plan.kill_at_op = 17;
    world.set_fault_plan(plan);
    const auto program = [&](mp::Context& ctx) {
      const int me = ctx.rank();
      for (int round = 0; round < 50; ++round) {
        ctx.send((me + 1) % ranks, static_cast<std::uint64_t>(round), {1.0});
        (void)ctx.recv((me + ranks - 1) % ranks, static_cast<std::uint64_t>(round));
      }
    };
    if (fuzzed) {
      analysis::FuzzPlan fp;
      fp.seed = 7;
      analysis::ScopedFuzzer fuzz(fp);
      EXPECT_THROW(world.run(program), mp::RankKilledError);
    } else {
      EXPECT_THROW(world.run(program), mp::RankKilledError);
    }
    return world.recovery_stats().kills;
  };
  EXPECT_EQ(run_once(false), 1u);
  EXPECT_EQ(run_once(true), 1u);
}

#endif  // TREESVD_ANALYSIS

// ---------------------------------------------------------------------------
// Wire-frame decode fuzzing (socket backend). decode_wire_frame is the
// byte-buffer reference parser, and WireReader, which parses bytes off a
// real socket, must agree with it however the stream is split. Both must
// classify *every* byte-stream correctly without ever reading out of bounds:
// truncations are kNeedMore, and every failed check — bad magic, version or
// kind, bad header checksum, oversized length, corrupted payload — is
// kBadFrame, which ends the stream. Run these under ASan and the no-OOB
// claim is machine-checked.

std::vector<std::uint8_t> encode_one(const mp::WireFrame& f) {
  std::vector<std::uint8_t> bytes;
  mp::encode_wire_frame(f, bytes);
  return bytes;
}

mp::WireFrame sample_frame() {
  mp::WireFrame f;
  f.kind = mp::WireKind::kData;
  f.tag = 77;
  f.seq = 3;
  f.aux = 0;
  f.payload = {1.0, -2.5, 3.25, 1e-300};
  return f;
}

TEST(MpWireFuzz, CleanFrameRoundTrips) {
  const auto bytes = encode_one(sample_frame());
  mp::WireFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
            mp::WireDecode::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.kind, mp::WireKind::kData);
  EXPECT_EQ(out.tag, 77u);
  EXPECT_EQ(out.seq, 3u);
  EXPECT_EQ(out.payload, sample_frame().payload);
}

TEST(MpWireFuzz, EveryTruncationNeedsMore) {
  // A prefix of a valid frame must never decode, error, or consume bytes —
  // partial reads are the socket's normal case, not a fault.
  const auto bytes = encode_one(sample_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    mp::WireFrame out;
    std::size_t consumed = 99;
    EXPECT_EQ(mp::decode_wire_frame(bytes.data(), len, 1 << 20, &out, &consumed),
              mp::WireDecode::kNeedMore)
        << "at truncation " << len;
    EXPECT_EQ(consumed, 0u) << "at truncation " << len;
  }
}

TEST(MpWireFuzz, HeaderCorruptionIsBadFrame) {
  // Any flipped bit in the protected header region must be caught by the
  // header checksum (or the magic/kind checks) before the length is trusted.
  const auto clean = encode_one(sample_frame());
  for (std::size_t byte = 0; byte < 40; ++byte) {
    auto bytes = clean;
    bytes[byte] ^= 0x40;
    mp::WireFrame out;
    std::size_t consumed = 99;
    EXPECT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
              mp::WireDecode::kBadFrame)
        << "header byte " << byte;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(MpWireFuzz, PayloadCorruptionIsBadFrame) {
  // A payload that fails its checksum breaks the stream like a damaged
  // header: the receiver closes it and consumes nothing.
  const auto clean = encode_one(sample_frame());
  for (std::size_t k = 0; k < sample_frame().payload.size(); ++k) {
    auto bytes = clean;
    bytes[mp::kWireHeaderBytes + k * sizeof(double)] ^= 0x01;
    mp::WireFrame out;
    std::size_t consumed = 99;
    EXPECT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
              mp::WireDecode::kBadFrame)
        << "payload double " << k;
    EXPECT_EQ(consumed, 0u) << "payload double " << k;
  }
}

TEST(MpWireFuzz, OversizedLengthIsRejectedBeforeAllocation) {
  // A frame whose (checksum-valid) payload count exceeds the receiver's
  // bound is a desync, not an allocation: the cap is enforced after the
  // header proves intact but before any payload is touched.
  mp::WireFrame f = sample_frame();
  const auto bytes = encode_one(f);
  mp::WireFrame out;
  std::size_t consumed = 99;
  EXPECT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), f.payload.size() - 1, &out,
                                  &consumed),
            mp::WireDecode::kBadFrame);
  EXPECT_EQ(consumed, 0u);
}

TEST(MpWireFuzz, SeededGarbageNeverDecodesAndNeverReadsOob) {
  // 4096 random byte strings (lengths 0..255): none can carry a valid
  // header checksum, so every verdict must be kNeedMore (too short to rule
  // out) or kBadFrame — and ASan guards the no-OOB half of the claim. The
  // buffers are heap-allocated at exact length so any overread is poisoned.
  Rng rng(0xF0CCED);
  for (int it = 0; it < 4096; ++it) {
    const std::size_t len = static_cast<std::size_t>(rng.below(256));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    mp::WireFrame out;
    std::size_t consumed = 0;
    const auto verdict =
        mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed);
    EXPECT_TRUE(verdict == mp::WireDecode::kNeedMore || verdict == mp::WireDecode::kBadFrame);
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(MpWireFuzz, GarbageAfterValidFrameDoesNotBleedBack) {
  // Decoding consumes exactly one frame; trailing garbage is the next
  // iteration's problem and must not affect this frame's verdict.
  auto bytes = encode_one(sample_frame());
  const std::size_t frame_len = bytes.size();
  for (int junk = 0; junk < 64; ++junk) bytes.push_back(static_cast<std::uint8_t>(junk * 37));
  mp::WireFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
            mp::WireDecode::kOk);
  EXPECT_EQ(consumed, frame_len);
  EXPECT_EQ(out.payload, sample_frame().payload);
}

// The payload checksum must catch every change confined to one word — each
// of its 64 bit flips, and replacement by NaN — whatever lane or tail slot
// the word lands in.
void expect_word_changes_detected(const std::vector<double>& payload,
                                  const std::vector<std::size_t>& words) {
  const std::uint64_t tag = 77;
  const std::uint64_t seq = 3;
  const std::uint64_t clean_sum = mp::frame_checksum(tag, seq, payload.data(), payload.size());
  mp::WireFrame f = sample_frame();
  f.payload = payload;
  std::vector<std::uint8_t> wire = encode_one(f);
  std::vector<double> changed = payload;
  const std::uint64_t nan_bits = 0x7ff8000000000000ULL;
  for (const std::size_t k : words) {
    const std::uint64_t clean = mp::double_to_bits(payload[k]);
    ASSERT_NE(clean, nan_bits);
    for (int variant = 0; variant <= 64; ++variant) {
      const std::uint64_t bits = variant < 64 ? clean ^ (std::uint64_t{1} << variant) : nan_bits;
      changed[k] = mp::bits_to_double(bits);
      EXPECT_NE(mp::frame_checksum(tag, seq, changed.data(), changed.size()), clean_sum)
          << "n=" << payload.size() << " word " << k << " variant " << variant;
      std::uint8_t* on_wire = wire.data() + mp::kWireHeaderBytes + k * sizeof(double);
      std::memcpy(on_wire, &bits, sizeof(bits));
      mp::WireFrame out;
      std::size_t consumed = 0;
      EXPECT_EQ(mp::decode_wire_frame(wire.data(), wire.size(), 1 << 20, &out, &consumed),
                mp::WireDecode::kBadFrame)
          << "n=" << payload.size() << " word " << k << " variant " << variant;
      changed[k] = payload[k];
      std::memcpy(on_wire, &clean, sizeof(clean));
    }
  }
  // Tag or seq alone: each seeds its own lane, so any change moves the sum.
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t flip = std::uint64_t{1} << b;
    EXPECT_NE(mp::frame_checksum(tag ^ flip, seq, payload.data(), payload.size()), clean_sum)
        << "n=" << payload.size() << " tag bit " << b;
    EXPECT_NE(mp::frame_checksum(tag, seq ^ flip, payload.data(), payload.size()), clean_sum)
        << "n=" << payload.size() << " seq bit " << b;
  }
  EXPECT_NE(mp::frame_checksum(tag + 1, seq, payload.data(), payload.size()), clean_sum);
  EXPECT_NE(mp::frame_checksum(tag, seq + 1, payload.data(), payload.size()), clean_sum);
}

TEST(MpWireFuzz, ChecksumCatchesEverySingleWordChange) {
  // Lengths 0..9 cover empty payloads, every tail length and two full lane
  // blocks; then an spmd column message (16384 rows plus two header words)
  // at its edges, lane boundaries and middle.
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<double> payload(n);
    std::vector<std::size_t> words(n);
    for (std::size_t k = 0; k < n; ++k) {
      payload[k] = (static_cast<double>(k) - 3.5) * 1.25;
      words[k] = k;
    }
    expect_word_changes_detected(payload, words);
  }
  const std::size_t n = 16386;
  Rng rng(0xC0FFEE);
  std::vector<double> column(n);
  for (double& x : column) x = rng.normal();
  expect_word_changes_detected(column, {0, 1, 2, 3, 4, n / 2, n - 2, n - 1});
}

/// Re-signs a wire header after a test edits it: FNV-1a over bytes 0..39
/// into bytes 40..47, as the encoder does.
void resign_header(std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < 40; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  for (std::size_t b = 0; b < 8; ++b) bytes[40 + b] = static_cast<std::uint8_t>(h >> (8 * b));
}

TEST(MpWireFuzz, VersionOneFrameIsBadFrame) {
  // Version 1 summed payloads byte-wise, so its payload checksum field means
  // something else, and versions 2 and 3 numbered the kinds differently: a
  // frame of any earlier version must be refused even with a correctly
  // signed header.
  auto bytes = encode_one(sample_frame());
  ASSERT_EQ(bytes[4], mp::kWireVersion);
  mp::WireFrame out;
  std::size_t consumed = 99;
  for (const std::uint8_t version : {1, 2, 3}) {
    bytes[4] = version;
    resign_header(bytes);
    EXPECT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
              mp::WireDecode::kBadFrame)
        << "version " << int{version};
    EXPECT_EQ(consumed, 0u);
  }
  // Control: the same edit back to the current version decodes cleanly, so
  // the version byte alone is what the decoder refused.
  bytes[4] = mp::kWireVersion;
  resign_header(bytes);
  EXPECT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
            mp::WireDecode::kOk);
}

/// One verdict of a parser, with the frame it yielded (kOk).
struct Parsed {
  mp::WireDecode verdict = mp::WireDecode::kNeedMore;
  mp::WireFrame frame;
};

/// The reference: decode_wire_frame over the whole buffer, up to the first
/// verdict that stops a stream.
std::vector<Parsed> decode_all(const std::vector<std::uint8_t>& bytes) {
  std::vector<Parsed> got;
  std::size_t off = 0;
  for (;;) {
    Parsed p;
    std::size_t consumed = 0;
    p.verdict = mp::decode_wire_frame(bytes.data() + off, bytes.size() - off, 1 << 20, &p.frame,
                                      &consumed);
    if (p.verdict == mp::WireDecode::kNeedMore) return got;
    off += consumed;
    got.push_back(std::move(p));
    if (got.back().verdict == mp::WireDecode::kBadFrame) return got;
  }
}

/// Writes `bytes` into a socketpair in seeded chunks of 1-4096 bytes and
/// runs a WireReader on the nonblocking end after each chunk, then closes
/// the writing end. Stops at the first verdict that ends a stream.
std::vector<Parsed> read_all(const std::vector<std::uint8_t>& bytes, std::uint64_t seed) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL, 0) | O_NONBLOCK);
  mp::WireReader reader(1 << 20);
  Rng rng(seed);
  std::vector<Parsed> got;
  std::size_t off = 0;
  bool open = true;
  for (;;) {
    Parsed p;
    p.verdict = reader.next(sv[0], &p.frame);
    if (p.verdict == mp::WireDecode::kNeedMore) {
      if (off == bytes.size()) {
        ::close(sv[1]);
        open = false;
        continue;
      }
      const std::size_t chunk =
          std::min(bytes.size() - off, static_cast<std::size_t>(1 + rng.below(4096)));
      EXPECT_EQ(::write(sv[1], bytes.data() + off, chunk), static_cast<ssize_t>(chunk));
      off += chunk;
      continue;
    }
    got.push_back(std::move(p));
    const mp::WireDecode v = got.back().verdict;
    if (v == mp::WireDecode::kBadFrame || v == mp::WireDecode::kClosed) break;
  }
  ::close(sv[0]);
  if (open) ::close(sv[1]);
  return got;
}

void expect_same_frames(const std::vector<Parsed>& got, const std::vector<Parsed>& want,
                        std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].verdict, want[k].verdict) << "seed " << seed << " frame " << k;
    if (want[k].verdict == mp::WireDecode::kBadFrame) continue;
    const mp::WireFrame& a = got[k].frame;
    const mp::WireFrame& b = want[k].frame;
    EXPECT_EQ(a.kind, b.kind) << "seed " << seed << " frame " << k;
    EXPECT_EQ(a.tag, b.tag) << "seed " << seed << " frame " << k;
    EXPECT_EQ(a.seq, b.seq) << "seed " << seed << " frame " << k;
    EXPECT_EQ(a.aux, b.aux) << "seed " << seed << " frame " << k;
    ASSERT_EQ(a.payload.size(), b.payload.size()) << "seed " << seed << " frame " << k;
    EXPECT_TRUE(std::equal(a.payload.begin(), a.payload.end(), b.payload.begin(),
                           [](double x, double y) {
                             return mp::double_to_bits(x) == mp::double_to_bits(y);
                           }))
        << "seed " << seed << " frame " << k;
  }
}

TEST(MpWireFuzz, ReaderMatchesDecoderAtEverySplit) {
  // A stream of every frame shape the socket backend writes: data frames
  // around the checksum's lane width and one spmd column message, HELLO and
  // control frames. However a socket splits it, the reader yields the
  // frames and verdicts the reference decoder yields.
  Rng rng(0x5EED);
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> starts;
  std::uint64_t seq = 0;
  for (const std::size_t n : {0, 1, 3, 4, 5, 16393}) {
    mp::WireFrame f;
    f.tag = 40 + n;
    f.seq = seq++;
    f.payload.resize(n);
    for (double& x : f.payload) x = rng.normal();
    starts.push_back(stream.size());
    mp::encode_wire_frame(f, stream);
  }
  mp::WireFrame hello;
  hello.kind = mp::WireKind::kHello;
  hello.aux = 3;
  mp::WireFrame sync;
  sync.kind = mp::WireKind::kSync;
  sync.seq = 7;
  sync.payload = {2.5};
  for (const mp::WireFrame* f : {&hello, &sync}) {
    starts.push_back(stream.size());
    mp::encode_wire_frame(*f, stream);
  }
  mp::encode_wire_frame(sample_frame(), stream);

  std::vector<Parsed> want = decode_all(stream);
  ASSERT_EQ(want.size(), starts.size() + 1);
  for (const Parsed& p : want) EXPECT_EQ(p.verdict, mp::WireDecode::kOk);
  want.push_back({mp::WireDecode::kClosed, {}});  // the writer closes at the end
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    expect_same_frames(read_all(stream, seed), want, seed);

  // A flipped header byte, or a flipped byte deep in the column message's
  // payload (checked in place, past the staging buffer), ends the stream in
  // kBadFrame after every frame before it.
  for (const std::size_t at : {starts[5] + 20, starts[5] + mp::kWireHeaderBytes + 8 * 9000}) {
    std::vector<std::uint8_t> torn = stream;
    torn[at] ^= 0x10;
    const std::vector<Parsed> want_torn = decode_all(torn);
    ASSERT_EQ(want_torn.size(), 6u);
    EXPECT_EQ(want_torn.back().verdict, mp::WireDecode::kBadFrame);
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      expect_same_frames(read_all(torn, seed), want_torn, seed);
  }

  // EOF inside the column message reads as the end of the stream.
  const auto cut_at = static_cast<std::ptrdiff_t>(starts[5] + 4096);
  const std::vector<std::uint8_t> cut(stream.begin(), stream.begin() + cut_at);
  std::vector<Parsed> want_cut = decode_all(cut);
  ASSERT_EQ(want_cut.size(), 5u);
  want_cut.push_back({mp::WireDecode::kClosed, {}});
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_same_frames(read_all(cut, seed), want_cut, seed);
}

TEST(MpWireFuzz, PackStringRoundTripsThroughPayload) {
  // Error messages ride wire-frame payloads; the packing must be exact for
  // any content, including embedded NULs and non-ASCII bytes.
  const std::string cases[] = {"", "x", "mp[socket]: src=0 dst=1 tag=9 seq=4",
                               std::string("nul\0byte", 8), "\xc3\xa9\xf0\x9f\x9a\x80"};
  for (const std::string& s : cases) {
    EXPECT_EQ(mp::unpack_string(mp::pack_string(s)), s);
    mp::WireFrame f;
    f.kind = mp::WireKind::kError;
    f.aux = 3;
    f.payload = mp::pack_string(s);
    const auto bytes = encode_one(f);
    mp::WireFrame out;
    std::size_t consumed = 0;
    ASSERT_EQ(mp::decode_wire_frame(bytes.data(), bytes.size(), 1 << 20, &out, &consumed),
              mp::WireDecode::kOk);
    EXPECT_EQ(mp::unpack_string(out.payload), s);
  }
}

// ---------------------------------------------------------------------------
// Serving queue under fuzzed schedules. The serving front-end's
// BoundedMpscQueue is the other lock/condvar hot spot this binary targets:
// seeded schedules perturb producer pacing, consumer batch sizes and the
// close point, and the invariant is conservation — every accepted item is
// popped exactly once, per-producer FIFO holds, and pop_batch reports
// exhaustion only after close.
// ---------------------------------------------------------------------------

TEST(ServeQueueFuzzed, ProducersAndCloseConserveItems) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 80;
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77}, std::uint64_t{2026},
                                   std::uint64_t{31337}}) {
    BoundedMpscQueue<int> q(6);
    std::vector<std::vector<int>> accepted(kProducers);
    std::atomic<int> popped_count{0};
    std::atomic<int> producers_done{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p, seed] {
        Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(p));
        for (int i = 0; i < kPerProducer; ++i) {
          const int v = p * 1000 + i;
          bool ok = false;
          // Seeded schedule: mix blocking and spinning admission, with
          // fuzzer-style yields between attempts.
          if (rng.below(3) == 0) {
            ok = q.push(v);
          } else {
            while (!(ok = q.try_push(v)) && !q.closed()) {
              if (rng.below(2) == 0) std::this_thread::yield();
            }
          }
          if (!ok) break;  // closed: this and all later pushes are dropped
          accepted[p].push_back(v);
          if (rng.below(4) == 0) std::this_thread::yield();
        }
        producers_done.fetch_add(1);
      });
    }

    // The closer picks a seeded cut point; one seed closes immediately so the
    // everything-dropped edge stays covered, and a cut past the total item
    // count degrades to close-after-producers-finish instead of hanging.
    std::thread closer([&, seed] {
      Rng rng(seed + 17);
      const int cut = seed == 1 ? 0 : static_cast<int>(rng.below(kProducers * kPerProducer));
      while (popped_count.load() < cut && producers_done.load() < kProducers)
        std::this_thread::yield();
      q.close();
    });

    Rng consumer_rng(seed ^ 0xC0517ABULL);
    std::vector<int> popped;
    std::vector<int> batch;
    for (;;) {
      batch.clear();
      if (q.pop_batch(batch, 1 + consumer_rng.below(7)) == 0) break;
      popped.insert(popped.end(), batch.begin(), batch.end());
      popped_count.store(static_cast<int>(popped.size()));
      if (consumer_rng.below(3) == 0) std::this_thread::yield();
    }
    for (auto& t : producers) t.join();
    closer.join();
    for (;;) {  // residue pushed while close raced the last pops
      batch.clear();
      if (q.pop_batch(batch, 8) == 0) break;
      popped.insert(popped.end(), batch.begin(), batch.end());
    }

    std::multiset<int> in;
    for (const auto& a : accepted) in.insert(a.begin(), a.end());
    std::multiset<int> out(popped.begin(), popped.end());
    EXPECT_EQ(in.size(), out.size()) << "seed=" << seed;
    EXPECT_EQ(in, out) << "seed=" << seed << ": conservation violated";
    for (int p = 0; p < kProducers; ++p) {
      int last = -1;
      for (const int v : popped) {
        if (v / 1000 != p) continue;
        EXPECT_LT(last, v) << "seed=" << seed << ": producer " << p << " FIFO violated";
        last = v;
      }
    }
  }
}

}  // namespace
}  // namespace treesvd
