#include "mp/fault.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "analysis/fuzz.hpp"

namespace treesvd::mp {
namespace {

using analysis::mix64;
using analysis::unit_interval;

/// Hash of one message identity under the plan seed (splitmix64, so a
/// decision needs no generator state at all). `salt` separates the
/// independent decision streams (action, corruption site, resend attempts).
std::uint64_t identity_hash(std::uint64_t seed, int src, int dst, std::uint64_t tag,
                            std::uint64_t seq, std::uint64_t salt) noexcept {
  std::uint64_t h = mix64(seed ^ salt);
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32));
  h = mix64(h ^ tag);
  h = mix64(h ^ seq);
  return h;
}

constexpr std::uint64_t kActionSalt = 0xAC710Dull;
constexpr std::uint64_t kCorruptSalt = 0xC0552Dull;
constexpr std::uint64_t kResendSalt = 0x5E5EBDull;

}  // namespace

FaultAction FaultInjector::action(int src, int dst, std::uint64_t tag, std::uint64_t seq) const {
  if (!plan_.has_message_faults()) return FaultAction::kDeliver;
  const double u = unit_interval(identity_hash(plan_.seed, src, dst, tag, seq, kActionSalt));
  double edge = plan_.drop_prob;
  if (u < edge) return FaultAction::kDrop;
  edge += plan_.duplicate_prob;
  if (u < edge) return FaultAction::kDuplicate;
  edge += plan_.corrupt_prob;
  if (u < edge) return FaultAction::kCorrupt;
  edge += plan_.delay_prob;
  if (u < edge) return FaultAction::kDelay;
  return FaultAction::kDeliver;
}

bool FaultInjector::resend_survives(int src, int dst, std::uint64_t tag, std::uint64_t seq,
                                    int attempt) const {
  if (!plan_.enabled || plan_.resend_drop_prob <= 0.0) return true;
  const std::uint64_t h = identity_hash(plan_.seed, src, dst, tag, seq,
                                        kResendSalt + static_cast<std::uint64_t>(attempt));
  return unit_interval(h) >= plan_.resend_drop_prob;
}

void FaultInjector::corrupt_payload(std::vector<double>& payload, int src, int dst,
                                    std::uint64_t tag, std::uint64_t seq) const {
  if (payload.empty()) return;
  const std::uint64_t h = identity_hash(plan_.seed, src, dst, tag, seq, kCorruptSalt);
  const std::size_t at = static_cast<std::size_t>(h % payload.size());
  if ((h >> 32) & 1u) {
    payload[at] = std::numeric_limits<double>::quiet_NaN();
  } else {
    // Flip a mantissa-or-above bit so the value changes for any input.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &payload[at], sizeof(bits));
    bits ^= 1ULL << ((h >> 33) % 63);
    std::memcpy(&payload[at], &bits, sizeof(bits));
  }
}

bool FaultInjector::should_kill(int rank, std::uint64_t op) {
  if (!plan_.enabled || plan_.kill_rank != rank || plan_.kill_at_op != op) return false;
  bool expected = false;
  return kill_fired_.compare_exchange_strong(expected, true);
}

bool FaultInjector::should_stall(int rank, std::uint64_t op) const {
  return plan_.enabled && plan_.stall_rank == rank && plan_.stall_at_op == op;
}

std::string to_json(const RecoveryStats& s) {
  std::ostringstream os;
  os << "{\"drops_seen\": " << s.drops_seen
     << ", \"duplicates_injected\": " << s.duplicates_injected
     << ", \"corruptions_injected\": " << s.corruptions_injected
     << ", \"delays_seen\": " << s.delays_seen << ", \"kills\": " << s.kills
     << ", \"stalls\": " << s.stalls << ", \"corruptions_detected\": " << s.corruptions_detected
     << ", \"duplicates_suppressed\": " << s.duplicates_suppressed
     << ", \"retries\": " << s.retries << ", \"resends\": " << s.resends
     << ", \"virtual_backoff\": " << s.virtual_backoff
     << ", \"checkpoints\": " << s.checkpoints << ", \"rollbacks\": " << s.rollbacks << "}";
  return os.str();
}

}  // namespace treesvd::mp
