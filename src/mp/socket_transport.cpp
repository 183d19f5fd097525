#include "mp/socket_transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "mp/frame.hpp"
#include "util/require.hpp"

namespace treesvd::mp {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int connect_unix(const std::string& path) noexcept {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    if (errno == EINTR) continue;
    ::close(fd);
    return -1;
  }
}

/// Upper bound a receiver accepts in one frame; a corrupted length field is
/// rejected by checksum before this, so this bounds only legal senders.
constexpr std::size_t kMaxPayloadDoubles = std::size_t{1} << 20;

/// Most (tag, seq) pairs one kAck frame carries before it is written on its
/// own; ~4 KiB, far inside a receiver's payload bound.
constexpr std::size_t kAckBatchPairs = 256;

/// Physical length of an injected delay fault. It exceeds the default
/// receive deadline, so the delay exercises the recovery path like the
/// in-process backend's "delayed frames are lost" rule.
constexpr double kDelayStallMs = 120.0;

/// Exit-frame kinds (WireFrame::aux of kError): which exception type a rank
/// process unwound with, so the launcher rethrows the same type.
enum ErrKind : int {
  kErrOther = 0,
  kErrRankKilled = 1,
  kErrWorldAborted = 2,
  kErrTransport = 3,
  kErrInvalidArgument = 4,
  kErrLogic = 5,
};

constexpr std::size_t kStatsDoubles = 13;  ///< [sends, 12 RecoveryStats fields]

std::vector<double> pack_stats(std::size_t sends, const RecoveryStats& now,
                               const RecoveryStats& base) {
  std::vector<double> p(kStatsDoubles);
  p[0] = static_cast<double>(sends);
  p[1] = static_cast<double>(now.drops_seen - base.drops_seen);
  p[2] = static_cast<double>(now.duplicates_injected - base.duplicates_injected);
  p[3] = static_cast<double>(now.corruptions_injected - base.corruptions_injected);
  p[4] = static_cast<double>(now.delays_seen - base.delays_seen);
  p[5] = static_cast<double>(now.kills - base.kills);
  p[6] = static_cast<double>(now.corruptions_detected - base.corruptions_detected);
  p[7] = static_cast<double>(now.duplicates_suppressed - base.duplicates_suppressed);
  p[8] = static_cast<double>(now.retries - base.retries);
  p[9] = static_cast<double>(now.resends - base.resends);
  p[10] = now.virtual_backoff - base.virtual_backoff;
  p[11] = static_cast<double>(now.checkpoints - base.checkpoints);
  p[12] = static_cast<double>(now.rollbacks - base.rollbacks);
  return p;
}

RecoveryStats unpack_stats(const std::vector<double>& p, std::size_t* sends) {
  RecoveryStats s;
  if (p.size() != kStatsDoubles) return s;  // malformed: ignore, counters stay monotone
  const auto u = [](double d) { return static_cast<std::size_t>(d); };
  *sends = u(p[0]);
  s.drops_seen = u(p[1]);
  s.duplicates_injected = u(p[2]);
  s.corruptions_injected = u(p[3]);
  s.delays_seen = u(p[4]);
  s.kills = u(p[5]);
  s.corruptions_detected = u(p[6]);
  s.duplicates_suppressed = u(p[7]);
  s.retries = u(p[8]);
  s.resends = u(p[9]);
  s.virtual_backoff = p[10];
  s.checkpoints = u(p[11]);
  s.rollbacks = u(p[12]);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Child-process machinery.

struct SocketTransport::RankRuntime {
  using Key = std::pair<int, std::uint64_t>;  ///< (peer, tag)

  SocketTransport* bk = nullptr;
  int rank = 0;
  int size = 0;
  SocketConfig cfg;
  bool reliable_on = false;           ///< the plan has message faults
  FaultInjector* inj = nullptr;       ///< child's copy of the injector
  RecoveryCounters* counters = nullptr;
  int ctl = -1;
  int listen_fd = -1;
  int wake_r = -1, wake_w = -1;       ///< self-pipe: program -> IO thread

  std::mutex ctl_mu;                  ///< control frames: program + IO thread

  // Receive-side state (mu/cv): stashes filled by the IO thread, drained by
  // the program thread under wall-clock deadlines.
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  bool aborted = false;
  std::vector<char> finished;         ///< launcher's kFinished notices
  std::vector<int> in_fd;             ///< open in-connection per source (-1 none)
  int pending_unknown = 0;            ///< accepted conns that have not said HELLO
  std::map<Key, std::map<std::uint64_t, std::vector<double>>> stash;
  std::map<Key, std::uint64_t> next_seq;
  std::map<std::uint64_t, double> release;  ///< collective results by generation

  std::uint64_t sync_gen = 0;         ///< program thread only

  std::map<Key, std::uint64_t> send_seq;  ///< program thread only
  std::atomic<std::size_t> sends{0};

  // Under message faults, the clean retransmit store that backs NACK
  // recovery (store_mu); without them no NACK can be sent, so nothing is
  // stored. A frame leaves it once its receiver acknowledges consuming it
  // (kAck): after that no NACK can name it. Until then a receiver may NACK
  // it for the rest of the run, which is why a finished rank waits in the
  // exit handshake before its process ends. Entries are shared: a delayed,
  // duplicated or NACK-served write may still be sending a frame when its
  // ack arrives. store_mu is never held across a write, so the IO thread's
  // releases never wait behind a send blocked on a full peer socket.
  using Stored = std::shared_ptr<const std::vector<double>>;
  std::mutex store_mu;
  std::map<Key, std::map<std::uint64_t, Stored>> store;

  // Writes (out_mu): lazy connections, and per peer the (tag, seq) bit pairs
  // of consumed frames not yet acknowledged (under message faults only).
  // They ride the next frame written to that peer, or go alone before a
  // recv blocks.
  std::mutex out_mu;
  std::vector<int> out;
  std::vector<std::vector<double>> acks;

  RecoveryStats baseline;             ///< counters at fork (ship deltas only)
  std::thread io;

  ~RankRuntime() {
    for (int fd : {ctl, wake_r, wake_w}) {
      if (fd >= 0) ::close(fd);
    }
    for (int fd : out) {
      if (fd >= 0) ::close(fd);
    }
  }

  /// Wakes the IO thread out of poll(). The self-pipe takes write(2), not
  /// write_wire_frames; a full pipe already holds a pending wake.
  void wake_io() noexcept {
    const std::uint8_t b = 1;
    while (::write(wake_w, &b, 1) < 0 && errno == EINTR) {
    }
  }

  void ctl_frame(const WireOut& f) noexcept {
    std::lock_guard<std::mutex> lock(ctl_mu);
    (void)!write_wire_frames(ctl, {&f, 1});
  }

  /// Writes dst's pending acks, then `frame` unless null, in one sendmsg,
  /// connecting (and re-connecting once: a killed connection is a
  /// *recoverable* physical fault) on demand. Caller holds out_mu.
  void write_locked(int dst, const WireOut* frame) noexcept {
    const auto d = static_cast<std::size_t>(dst);
    WireOut batch[2];
    std::size_t count = 0;
    if (!acks[d].empty()) {
      batch[count].kind = WireKind::kAck;
      batch[count++].payload = acks[d];
    }
    if (frame != nullptr) batch[count++] = *frame;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (out[d] < 0) {
        const int fd = connect_unix(bk->paths_[d]);
        if (fd < 0) return;  // peer gone: recovery/abort machinery takes over
        WireOut hello;
        hello.kind = WireKind::kHello;
        hello.aux = static_cast<std::uint64_t>(rank);
        if (!write_wire_frames(fd, {&hello, 1})) {
          ::close(fd);
          return;
        }
        out[d] = fd;
      }
      if (write_wire_frames(out[d], {batch, count})) {
        acks[d].clear();
        return;
      }
      ::close(out[d]);
      out[d] = -1;
    }
  }

  void write_to(int dst, const WireOut& frame) noexcept {
    std::lock_guard<std::mutex> lock(out_mu);
    write_locked(dst, &frame);
  }

  void write_data(int dst, std::uint64_t tag, std::uint64_t seq,
                  const std::vector<double>& clean, const std::vector<double>* corrupted) {
    WireOut f;
    f.tag = tag;
    f.seq = seq;
    f.payload = clean;
    if (corrupted != nullptr) f.on_wire = corrupted->data();
    write_to(dst, f);
  }

  void send_nack(int src, std::uint64_t tag, std::uint64_t seq, int attempt) {
    WireOut f;
    f.kind = WireKind::kNack;
    f.tag = tag;
    f.seq = seq;
    f.aux = static_cast<std::uint64_t>(attempt);
    write_to(src, f);
  }

  /// Owes `src` an acknowledgement for a frame handed to the program.
  void record_ack(int src, std::uint64_t tag, std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(out_mu);
    std::vector<double>& pending = acks[static_cast<std::size_t>(src)];
    pending.push_back(bits_to_double(tag));
    pending.push_back(bits_to_double(seq));
    if (pending.size() >= 2 * kAckBatchPairs) write_locked(src, nullptr);
  }

  void flush_acks() {
    std::lock_guard<std::mutex> lock(out_mu);
    for (int peer = 0; peer < size; ++peer) {
      if (!acks[static_cast<std::size_t>(peer)].empty()) write_locked(peer, nullptr);
    }
  }

  /// A kAck from `dst`: drop what it consumed from the store. A receiver
  /// consumes each (dst, tag) stream in order, so everything up to the
  /// acknowledged seq goes.
  void release_acked(int dst, const std::vector<double>& pairs) {
    std::vector<Stored> released;  // freed after the lock is dropped
    std::lock_guard<std::mutex> lock(store_mu);
    for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
      const auto sit = store.find({dst, double_to_bits(pairs[i])});
      if (sit == store.end()) continue;
      auto& frames = sit->second;
      const auto last = frames.upper_bound(double_to_bits(pairs[i + 1]));
      for (auto it = frames.begin(); it != last; ++it) released.push_back(std::move(it->second));
      frames.erase(frames.begin(), last);
      if (frames.empty()) store.erase(sit);
    }
  }

  /// Serves a peer's retransmission request from the clean store. A NACK for
  /// a frame this rank has not sent yet is ignored — the receiver's deadline
  /// simply fired before our send; the normal transmission will arrive.
  void serve_nack(int dst, std::uint64_t tag, std::uint64_t seq, int attempt) {
    Stored clean;
    {
      std::lock_guard<std::mutex> lock(store_mu);
      const auto sit = store.find({dst, tag});
      if (sit == store.end()) return;
      const auto pit = sit->second.find(seq);
      if (pit == sit->second.end()) return;
      clean = pit->second;
    }
    if (inj != nullptr && !inj->resend_survives(rank, dst, tag, seq, attempt)) {
      counters->add_drop();  // the retransmission was lost too
      return;
    }
    counters->add_resend();
    write_data(dst, tag, seq, *clean, nullptr);
  }

  void handle_data(int src, WireFrame&& f) {
    std::lock_guard<std::mutex> lock(mu);
    const Key key{src, f.tag};
    const auto nit = next_seq.find(key);
    if (nit != next_seq.end() && f.seq < nit->second) {
      counters->add_duplicate_suppressed();  // stale resend survivor
    } else if (!stash[key].emplace(f.seq, std::move(f.payload)).second) {
      counters->add_duplicate_suppressed();  // duplicate arrival
    }
    cv.notify_all();
  }

  void mark_abort() {
    std::lock_guard<std::mutex> lock(mu);
    aborted = true;
    cv.notify_all();
  }

  /// True when nothing from `src` can ever arrive again: the launcher said
  /// the rank is gone AND every byte it managed to put on the wire has been
  /// drained to EOF (kernel buffers outlive the writer, so EOF — not the
  /// death notice — is what makes "no data" conclusive; the in-process
  /// analogue is the finished flag plus the synchronous-delivery argument).
  /// Caller holds mu.
  bool unreachable(int src) const {
    return finished[static_cast<std::size_t>(src)] != 0 &&
           in_fd[static_cast<std::size_t>(src)] < 0 && pending_unknown == 0;
  }

  // ---- IO thread --------------------------------------------------------

  struct Conn {
    int fd = -1;
    int src = -1;  ///< unknown until the HELLO frame
    WireReader reader;
  };

  void close_conn(Conn& c) {
    std::lock_guard<std::mutex> lock(mu);
    if (c.src >= 0) {
      if (in_fd[static_cast<std::size_t>(c.src)] == c.fd) in_fd[static_cast<std::size_t>(c.src)] = -1;
    } else {
      --pending_unknown;
    }
    ::close(c.fd);
    c.fd = -1;
    cv.notify_all();
  }

  /// Acts on one frame from a peer connection. False when the peer broke
  /// the protocol and the connection must be closed.
  bool on_peer_frame(Conn& c, WireDecode d, WireFrame&& f) {
    if (d == WireDecode::kBadPayload) {
      // Header intact, payload damaged: the reader skipped exactly this
      // frame; ask for it again — physical corruption recovery.
      counters->add_corruption_detected();
      if (c.src >= 0 && f.kind == WireKind::kData) send_nack(c.src, f.tag, f.seq, 0);
      return true;
    }
    switch (f.kind) {
      case WireKind::kHello: {
        const int src = static_cast<int>(f.aux);
        if (src < 0 || src >= size || src == rank) return false;
        std::lock_guard<std::mutex> lock(mu);
        if (c.src < 0) --pending_unknown;
        c.src = src;
        in_fd[static_cast<std::size_t>(src)] = c.fd;
        // pending_unknown feeds unreachable(): a recv blocked on a dead
        // source may be waiting for exactly this connection to identify.
        cv.notify_all();
        return true;
      }
      case WireKind::kData:
        if (c.src < 0) return false;  // data before HELLO: not one of ours
        handle_data(c.src, std::move(f));
        return true;
      case WireKind::kNack:
        if (c.src >= 0) serve_nack(c.src, f.tag, f.seq, static_cast<int>(f.aux));
        return true;
      case WireKind::kAck:
        if (c.src >= 0) release_acked(c.src, f.payload);
        return true;
      default:
        return false;  // control-only kind on a data stream
    }
  }

  /// Reads every frame ready on `c`. EOF, a read error or a desync closes
  /// it: the retry path re-delivers anything a torn stream lost.
  void read_conn(Conn& c) {
    for (;;) {
      WireFrame f;
      const WireDecode d = c.reader.next(c.fd, &f);
      if (d == WireDecode::kNeedMore) return;
      const bool framed = d == WireDecode::kOk || d == WireDecode::kBadPayload;
      if (!framed || !on_peer_frame(c, d, std::move(f))) {
        close_conn(c);
        return;
      }
    }
  }

  /// Reads every launcher frame ready on the control stream; false once the
  /// stream is lost (EOF, a read error, or damage launcher frames never
  /// carry).
  bool read_ctl(WireReader& reader) {
    for (;;) {
      WireFrame f;
      const WireDecode d = reader.next(ctl, &f);
      if (d == WireDecode::kNeedMore) return true;
      if (d != WireDecode::kOk) return false;
      switch (f.kind) {
        case WireKind::kSyncRelease: {
          std::lock_guard<std::mutex> lock(mu);
          release[f.seq] = f.payload.empty() ? 0.0 : f.payload[0];
          cv.notify_all();
          break;
        }
        case WireKind::kFinished: {
          std::lock_guard<std::mutex> lock(mu);
          if (f.aux < static_cast<std::uint64_t>(size)) finished[f.aux] = 1;
          cv.notify_all();
          break;
        }
        case WireKind::kAbort:
          mark_abort();
          break;
        default:
          break;
      }
    }
  }

  void io_loop() {
    std::deque<Conn> conns;
    WireReader ctl_reader(kMaxPayloadDoubles);
    auto last_hb = Clock::now() - std::chrono::hours(1);
    bool ctl_alive = true;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop) break;
      }
      const auto now = Clock::now();
      if (ms_between(last_hb, now) >= cfg.heartbeat_interval_ms) {
        WireOut hb;
        hb.kind = WireKind::kHeartbeat;
        ctl_frame(hb);
        last_hb = now;
      }
      std::vector<pollfd> fds;
      fds.push_back({wake_r, POLLIN, 0});
      fds.push_back({listen_fd, POLLIN, 0});
      if (ctl_alive) fds.push_back({ctl, POLLIN, 0});
      const std::size_t conn_base = fds.size();
      const std::size_t polled_conns = conns.size();  // accepts below grow conns
      for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
      const int timeout = static_cast<int>(cfg.heartbeat_interval_ms) + 1;
      const int pr = ::poll(fds.data(), fds.size(), timeout);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents != 0) {  // wake pipe
        std::uint8_t sink[64];
        while (::read(wake_r, sink, sizeof(sink)) > 0) {
        }
      }
      if (fds[1].revents != 0) {  // new peer connections
        for (;;) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking(fd);
          {
            std::lock_guard<std::mutex> lock(mu);
            ++pending_unknown;
          }
          conns.push_back(Conn{fd, -1, WireReader(kMaxPayloadDoubles)});
        }
      }
      if (ctl_alive && fds[conn_base - 1].revents != 0 && !read_ctl(ctl_reader)) {
        // Launcher died under us: nothing can complete any more — treat as
        // a world abort with every peer unreachable so the program unwinds.
        ctl_alive = false;
        std::lock_guard<std::mutex> lock(mu);
        aborted = true;
        for (auto& fl : finished) fl = 1;
        cv.notify_all();
      }
      for (std::size_t i = 0; i < polled_conns; ++i) {
        // conns may not shrink inside this loop; EOF-closed entries are
        // swept afterwards.
        if (fds[conn_base + i].revents != 0) read_conn(conns[i]);
      }
      for (auto it = conns.begin(); it != conns.end();) {
        it = it->fd < 0 ? conns.erase(it) : std::next(it);
      }
    }
  }

  std::vector<double> stats_payload() {
    return pack_stats(sends.load(), counters->snapshot(), baseline);
  }
};

// ---------------------------------------------------------------------------
// Backend: construction and parent-side lifecycle.

SocketTransport::SocketTransport(World* world, const SocketConfig& config)
    : TransportBackend(world), cfg_(config) {
  if (cfg_.socket_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                        "/treesvd.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    TREESVD_REQUIRE(::mkdtemp(buf.data()) != nullptr,
                    "socket backend: mkdtemp failed for listener directory");
    dir_ = buf.data();
    owns_dir_ = true;
  } else {
    dir_ = cfg_.socket_dir;
    ::mkdir(dir_.c_str(), 0700);  // best effort; bind reports real failures
  }
  const int n = world->size();
  pids_ = std::make_unique<std::atomic<long>[]>(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) pids_[static_cast<std::size_t>(r)].store(0);
  listeners_.resize(static_cast<std::size_t>(n), -1);
  paths_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const std::string path = dir_ + "/r" + std::to_string(r) + ".sock";
    sockaddr_un addr{};
    TREESVD_REQUIRE(path.size() < sizeof(addr.sun_path),
                    "socket backend: listener path too long: " + path);
    ::unlink(path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    TREESVD_REQUIRE(fd >= 0, "socket backend: socket() failed");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    TREESVD_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
                    "socket backend: bind failed for " + path);
    TREESVD_REQUIRE(::listen(fd, 64) == 0, "socket backend: listen failed for " + path);
    set_nonblocking(fd);
    paths_[static_cast<std::size_t>(r)] = path;
    listeners_[static_cast<std::size_t>(r)] = fd;
  }
}

SocketTransport::~SocketTransport() {
  // Never reached in a rank process (children _exit), so this is launcher
  // cleanup only.
  for (int fd : listeners_) {
    if (fd >= 0) ::close(fd);
  }
  for (const std::string& path : paths_) ::unlink(path.c_str());
  if (owns_dir_) ::rmdir(dir_.c_str());
}

void SocketTransport::drain_listener_backlog() noexcept {
  for (int fd : listeners_) {
    for (;;) {
      const int c = ::accept(fd, nullptr, nullptr);
      if (c < 0) break;
      ::close(c);
    }
  }
}

long SocketTransport::process_id(int rank) const noexcept {
  return pids_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Rank-process entry points (called through Context in a forked child).

#define TREESVD_MP_CHILD_ONLY() \
  TREESVD_ASSERT(runtime_ != nullptr && "socket transport op outside a rank process")

void SocketTransport::send(Context& ctx, int dst, std::uint64_t tag, std::vector<double> data) {
  TREESVD_MP_CHILD_ONLY();
  RankRuntime& rt = *runtime_;
  const RankRuntime::Key key{dst, tag};
  const std::uint64_t seq = rt.send_seq[key]++;
  rt.sends.fetch_add(1, std::memory_order_relaxed);
  if (!rt.reliable_on) {
    // No fault can touch the frame and no NACK can name it: it goes out
    // straight from the caller's vector, and no copy is kept.
    rt.write_data(dst, tag, seq, data, nullptr);
    return;
  }
  // Every write below, and any NACK the IO thread serves, goes out straight
  // from this one vector.
  const auto frame = std::make_shared<const std::vector<double>>(std::move(data));
  {
    std::lock_guard<std::mutex> lock(rt.store_mu);
    rt.store[key][seq] = frame;  // backs NACK recovery until the receiver acks it
  }
  switch (rt.inj->action(ctx.rank(), dst, tag, seq)) {
    case FaultAction::kDeliver:
      rt.write_data(dst, tag, seq, *frame, nullptr);
      break;
    case FaultAction::kDrop: {
      // Physical drop: the frame never leaves, and the connection it would
      // have ridden is killed — the receiver sees a torn stream, its
      // deadline fires, and the NACK path re-delivers over a reconnect.
      rt.counters->add_drop();
      std::lock_guard<std::mutex> lock(rt.out_mu);
      int& fd = rt.out[static_cast<std::size_t>(dst)];
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
      break;
    }
    case FaultAction::kDuplicate:
      rt.counters->add_duplicate_injected();
      rt.write_data(dst, tag, seq, *frame, nullptr);
      rt.write_data(dst, tag, seq, *frame, nullptr);
      break;
    case FaultAction::kCorrupt: {
      rt.counters->add_corruption_injected();
      std::vector<double> damaged = *frame;
      rt.inj->corrupt_payload(damaged, ctx.rank(), dst, tag, seq);
      rt.write_data(dst, tag, seq, *frame, &damaged);
      break;
    }
    case FaultAction::kDelay:
      // Physical delay: a real sender stall longer than the receive
      // deadline, so the receiver recovers via NACK and the late original
      // is suppressed by its sequence number on arrival.
      rt.counters->add_delay();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kDelayStallMs));
      rt.write_data(dst, tag, seq, *frame, nullptr);
      break;
  }
}

std::vector<double> SocketTransport::recv(Context& ctx, int src, std::uint64_t tag) {
  TREESVD_MP_CHILD_ONLY();
  RankRuntime& rt = *runtime_;
  const RankRuntime::Key key{src, tag};
  std::unique_lock<std::mutex> lock(rt.mu);
  const std::uint64_t expected = rt.next_seq[key];
  std::vector<double> payload;
  const auto take = [&] {
    const auto sit = rt.stash.find(key);
    if (sit == rt.stash.end()) return false;
    const auto pit = sit->second.find(expected);
    if (pit == sit->second.end()) return false;
    payload = std::move(pit->second);
    sit->second.erase(pit);
    rt.next_seq[key] = expected + 1;
    return true;
  };
  if (!take()) {
    if (rt.reliable_on) {
      // About to block: acknowledge what this rank has consumed first, so no
      // sender's store waits on this rank's next write to that sender.
      lock.unlock();
      rt.flush_acks();
      lock.lock();
    }
    int attempt = 0;
    double wall_ms = rt.cfg.recv_deadline_ms;
    double virtual_wait = kRetryDeadline;
    for (;;) {
      const auto ready = [&] {
        const auto sit = rt.stash.find(key);
        if (sit != rt.stash.end() && sit->second.count(expected) != 0) return true;
        return rt.aborted && rt.unreachable(src);
      };
      bool have = false;
      if (rt.reliable_on) {
        have = rt.cv.wait_for(lock, std::chrono::duration<double, std::milli>(wall_ms), ready);
      } else {
        rt.cv.wait(lock, ready);
        have = true;
      }
      if (take()) break;
      if (have) {  // woke on the abort/unreachable arm
        throw WorldAbortedError("recv blocked on dead rank process: src=" + std::to_string(src) +
                                " dst=" + std::to_string(ctx.rank()) +
                                " tag=" + std::to_string(tag) +
                                " seq=" + std::to_string(expected));
      }
      // Wall-clock deadline expired: the frame was lost, torn with its
      // connection, or is stalling in a delayed sender — NACK for a clean
      // retransmission, with the same bounded retry + exponential backoff
      // budget the in-process backend accounts in virtual time.
      const int max_retries = rt.inj->plan().max_retries;
      if (attempt >= max_retries)
        throw transport_exhausted("socket", src, ctx.rank(), tag, expected, max_retries);
      rt.counters->add_retry();
      rt.counters->add_virtual_backoff(virtual_wait);
      virtual_wait *= kRetryBackoff;
      wall_ms *= kRetryBackoff;
      ++attempt;
      lock.unlock();
      rt.send_nack(src, tag, expected, attempt - 1);
      lock.lock();
    }
  }
  lock.unlock();
  if (rt.reliable_on) rt.record_ack(src, tag, expected);
  return payload;
}

double SocketTransport::allreduce_sum(Context& ctx, double value) {
  TREESVD_MP_CHILD_ONLY();
  RankRuntime& rt = *runtime_;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(rt.mu);
    if (rt.aborted)
      throw WorldAbortedError("collective entered on an aborted world: rank " +
                              std::to_string(ctx.rank()));
    gen = rt.sync_gen++;
  }
  WireOut f;
  f.kind = WireKind::kSync;
  f.seq = gen;
  f.payload = std::span<const double>(&value, 1);
  rt.ctl_frame(f);
  std::unique_lock<std::mutex> lock(rt.mu);
  rt.cv.wait(lock, [&] { return rt.release.count(gen) != 0 || rt.aborted; });
  const auto it = rt.release.find(gen);
  if (it == rt.release.end())
    throw WorldAbortedError("collective generation " + std::to_string(gen) +
                            " can never complete: rank " + std::to_string(ctx.rank()));
  const double result = it->second;
  rt.release.erase(it);
  return result;
}

void SocketTransport::publish(Context&, std::uint64_t key, std::vector<double> blob) {
  TREESVD_MP_CHILD_ONLY();
  WireOut f;
  f.kind = WireKind::kPublish;
  f.aux = key;
  f.payload = blob;
  runtime_->ctl_frame(f);
  // Locally too, so published()/has_published() behave uniformly inside the
  // rank process (its World copy), not just on the launcher.
  store_blob(key, std::move(blob));
}

void SocketTransport::execute_kill(Context&, std::uint64_t op) {
  TREESVD_MP_CHILD_ONLY();
  RankRuntime& rt = *runtime_;
  rt.counters->add_kill();
  // Ship the kill notice and this rank's statistics home in one write —
  // the socketpair buffer outlives the process — then die for real.
  const std::vector<double> stats = rt.stats_payload();
  WireOut f;
  f.kind = WireKind::kKilled;
  f.aux = op;
  f.payload = stats;
  rt.ctl_frame(f);
  ::raise(SIGKILL);
  ::_exit(137);  // unreachable; keeps [[noreturn]] honest if SIGKILL is blocked
}

// ---------------------------------------------------------------------------
// run(): fork the ranks, watch them, rebuild the lowest-rank failure.

void SocketTransport::run_child(int rank, int ctl_fd,
                                const std::function<void(Context&)>& program) {
  runtime_ = std::make_unique<RankRuntime>();
  RankRuntime& rt = *runtime_;
  rt.bk = this;
  rt.rank = rank;
  rt.size = world().size();
  rt.cfg = cfg_;
  rt.reliable_on = reliable();
  rt.inj = injector();
  rt.counters = &counters();
  rt.ctl = ctl_fd;
  set_nonblocking(rt.ctl);  // the IO thread reads it with until-EAGAIN loops
  rt.listen_fd = listeners_[static_cast<std::size_t>(rank)];
  rt.finished.assign(static_cast<std::size_t>(rt.size), 0);
  rt.in_fd.assign(static_cast<std::size_t>(rt.size), -1);
  rt.out.assign(static_cast<std::size_t>(rt.size), -1);
  rt.acks.resize(static_cast<std::size_t>(rt.size));
  rt.baseline = rt.counters->snapshot();
  int wake[2] = {-1, -1};
  if (::pipe(wake) == 0) {
    set_nonblocking(wake[0]);
    set_nonblocking(wake[1]);
  }
  rt.wake_r = wake[0];
  rt.wake_w = wake[1];
  rt.io = std::thread([&rt] { rt.io_loop(); });

  int code = 0;
  int err_kind = kErrOther;
  std::string err_msg;
  {
    Context ctx = make_context(&world(), rank);
    try {
      program(ctx);
    } catch (const WorldAbortedError& e) {
      code = 2;
      err_kind = kErrWorldAborted;
      err_msg = e.what();
    } catch (const TransportError& e) {
      code = 3;
      err_kind = kErrTransport;
      err_msg = e.what();
    } catch (const RankKilledError& e) {
      code = 4;
      err_kind = kErrRankKilled;
      err_msg = e.what();
    } catch (const std::invalid_argument& e) {
      code = 5;
      err_kind = kErrInvalidArgument;
      err_msg = e.what();
    } catch (const std::logic_error& e) {
      code = 6;
      err_kind = kErrLogic;
      err_msg = e.what();
    } catch (const std::exception& e) {
      code = 7;
      err_kind = kErrOther;
      err_msg = e.what();
    } catch (...) {
      code = 7;
      err_kind = kErrOther;
      err_msg = "non-standard exception";
    }
    if (code == 0) {
      // Exit handshake: keep the IO thread and the retransmit store serving
      // a peer's late NACKs until every rank has returned (the launcher
      // releases this collective generation) or the world aborts. Called on
      // the backend, not through Context, so fault-op numbering is untouched.
      if (rt.reliable_on) rt.flush_acks();
      try {
        (void)allreduce_sum(ctx, 0.0);
      } catch (const WorldAbortedError&) {
        // The program did return: the abort belongs to another rank.
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(rt.mu);
    rt.stop = true;
  }
  rt.wake_io();
  rt.io.join();
  if (code != 0) {
    const std::vector<double> message = pack_string(err_msg);
    WireOut f;
    f.kind = WireKind::kError;
    f.aux = static_cast<std::uint64_t>(err_kind);
    f.payload = message;
    rt.ctl_frame(f);
  }
  const std::vector<double> stats = rt.stats_payload();
  WireOut f;
  f.kind = WireKind::kExit;
  f.payload = stats;
  rt.ctl_frame(f);
  // _exit, not exit: a forked copy of the launcher must not run its static
  // destructors (or flush its inherited stdio buffers twice).
  ::_exit(code);
}

namespace {

/// Launcher-side view of one rank process.
struct ChildMon {
  long pid = 0;
  int ctl = -1;
  WireReader reader{kMaxPayloadDoubles};
  bool ctl_open = true;
  bool exited = false;
  bool finished_sent = false;  ///< kFinished broadcast done for this rank
  // Terminal records, in launcher-priority order.
  bool killed_frame = false;   ///< planned kill: kKilled arrived
  std::uint64_t kill_op = 0;
  bool external = false;       ///< died by a signal with no kKilled notice
  int ext_sig = 0;
  std::string ext_detail;
  bool has_error = false;
  int err_kind = -1;
  std::string err_msg;
  Clock::time_point hb;
};

struct SyncGather {
  int count = 0;
  std::vector<double> values;
};

}  // namespace

void SocketTransport::run(const std::function<void(Context&)>& program) {
  TREESVD_ASSERT(runtime_ == nullptr);  // no nested worlds inside a rank process
  const int n = world().size();
  drain_listener_backlog();

  std::vector<int> ctl_parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ctl_child(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    int sv[2] = {-1, -1};
    TREESVD_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                    "socket backend: control socketpair failed");
    ctl_parent[static_cast<std::size_t>(r)] = sv[0];
    ctl_child[static_cast<std::size_t>(r)] = sv[1];
  }

  std::vector<ChildMon> mon(static_cast<std::size_t>(n));
  const auto start = Clock::now();
  // Flush once so forked children never carry (and later re-emit) buffered
  // launcher output.
  std::fflush(nullptr);
  for (int r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    TREESVD_REQUIRE(pid >= 0, "socket backend: fork failed");
    if (pid == 0) {
      for (int i = 0; i < n; ++i) {
        ::close(ctl_parent[static_cast<std::size_t>(i)]);
        if (i != r) ::close(ctl_child[static_cast<std::size_t>(i)]);
        if (i != r) ::close(listeners_[static_cast<std::size_t>(i)]);
      }
      run_child(r, ctl_child[static_cast<std::size_t>(r)], program);  // never returns
    }
    ::close(ctl_child[static_cast<std::size_t>(r)]);
    ctl_child[static_cast<std::size_t>(r)] = -1;
    pids_[static_cast<std::size_t>(r)].store(pid, std::memory_order_release);
    ChildMon& m = mon[static_cast<std::size_t>(r)];
    m.pid = pid;
    m.ctl = ctl_parent[static_cast<std::size_t>(r)];
    set_nonblocking(m.ctl);
    m.hb = start;
  }

  std::map<std::uint64_t, SyncGather> syncs;
  bool abort_sent = false;

  const auto broadcast = [&](const WireOut& f, int except) {
    for (int r = 0; r < n; ++r) {
      ChildMon& m = mon[static_cast<std::size_t>(r)];
      if (r == except || !m.ctl_open) continue;
      (void)!write_wire_frames(m.ctl, {&f, 1});
    }
  };
  const auto trigger_abort = [&] {
    if (abort_sent) return;
    abort_sent = true;
    set_world_aborted();
    WireOut f;
    f.kind = WireKind::kAbort;
    broadcast(f, -1);
  };
  const auto announce_exit = [&](int r) {
    ChildMon& m = mon[static_cast<std::size_t>(r)];
    if (m.finished_sent) return;
    m.finished_sent = true;
    WireOut f;
    f.kind = WireKind::kFinished;
    f.aux = static_cast<std::uint64_t>(r);
    broadcast(f, r);
  };
  const auto ingest_stats = [&](const std::vector<double>& payload) {
    std::size_t sends = 0;
    const RecoveryStats delta = unpack_stats(payload, &sends);
    counters().accumulate(delta);
    count_sends(sends);
  };

  // Reads every frame rank r's control stream has ready. Also called when r
  // is reaped: a dead rank's last frames (kKilled, kError, kExit) sit in the
  // socket buffer, and they decide how the death is reported.
  const auto read_ctl = [&](int r) {
    ChildMon& m = mon[static_cast<std::size_t>(r)];
    for (;;) {
      WireFrame f;
      const WireDecode d = m.reader.next(m.ctl, &f);
      if (d == WireDecode::kNeedMore) break;
      if (d != WireDecode::kOk) {
        if (d != WireDecode::kClosed) {
          // A torn control stream means the rank process is damaged in a
          // way the protocol cannot survive; put it down.
          if (!m.has_error) {
            m.has_error = true;
            m.err_kind = kErrOther;
            m.err_msg = "mp[socket]: control-stream desync from rank " + std::to_string(r);
          }
          if (!m.exited && m.pid != 0) ::kill(static_cast<pid_t>(m.pid), SIGKILL);
        }
        ::close(m.ctl);
        m.ctl_open = false;
        break;
      }
      switch (f.kind) {
        case WireKind::kHeartbeat:
          m.hb = Clock::now();
          break;
        case WireKind::kSync: {
          SyncGather& g = syncs[f.seq];
          if (g.values.empty()) g.values.assign(static_cast<std::size_t>(n), 0.0);
          g.values[static_cast<std::size_t>(r)] = f.payload.empty() ? 0.0 : f.payload[0];
          if (++g.count == n) {
            // Rank-order summation: deterministic regardless of arrival
            // order (at least as strong as the in-process backend).
            double sum = 0.0;
            for (double v : g.values) sum += v;
            WireOut rel;
            rel.kind = WireKind::kSyncRelease;
            rel.seq = f.seq;
            rel.payload = std::span<const double>(&sum, 1);
            broadcast(rel, -1);
            syncs.erase(f.seq);
          }
          break;
        }
        case WireKind::kPublish:
          store_blob(f.aux, std::move(f.payload));
          break;
        case WireKind::kKilled:
          m.killed_frame = true;
          m.kill_op = f.aux;
          ingest_stats(f.payload);
          // The child consumed the kill latch in its own forked memory;
          // latch the launcher's copy so a respawned world replays past
          // the kill instead of re-firing it.
          if (injector() != nullptr) injector()->latch_kill();
          // Abort on the report itself, not on the later reap: ranks
          // waiting in the exit handshake leave one round trip after it.
          trigger_abort();
          break;
        case WireKind::kError:
          if (!m.has_error) {
            m.has_error = true;
            m.err_kind = static_cast<int>(f.aux);
            m.err_msg = unpack_string(f.payload);
          }
          if (static_cast<int>(f.aux) != kErrWorldAborted) trigger_abort();
          break;
        case WireKind::kExit:
          ingest_stats(f.payload);
          break;
        default:
          break;
      }
    }
  };

  for (;;) {
    bool all_done = true;
    for (const ChildMon& m : mon) {
      all_done = all_done && m.exited && !m.ctl_open;
    }
    if (all_done) break;

    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    for (int r = 0; r < n; ++r) {
      if (!mon[static_cast<std::size_t>(r)].ctl_open) continue;
      fds.push_back({mon[static_cast<std::size_t>(r)].ctl, POLLIN, 0});
      fd_rank.push_back(r);
    }
    if (!fds.empty()) {
      const int pr = ::poll(fds.data(), fds.size(), 20);
      if (pr < 0 && errno != EINTR)
        throw TransportError("mp[socket]: launcher poll failed: " +
                             std::string(std::strerror(errno)));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) read_ctl(fd_rank[i]);
    }

    // Once every control stream is closed, each rank left to reap has
    // exited or been SIGKILLed: wait for it instead of polling in a loop.
    const int wait_flags = fds.empty() ? 0 : WNOHANG;
    const auto now = Clock::now();
    for (int r = 0; r < n; ++r) {
      ChildMon& m = mon[static_cast<std::size_t>(r)];
      if (m.exited) continue;
      int status = 0;
      const pid_t got = ::waitpid(static_cast<pid_t>(m.pid), &status, wait_flags);
      if (got == static_cast<pid_t>(m.pid)) {
        m.exited = true;
        pids_[static_cast<std::size_t>(r)].store(0, std::memory_order_release);
        if (m.ctl_open) read_ctl(r);
        if (WIFSIGNALED(status) && !m.killed_frame && !m.external) {
          m.external = true;
          m.ext_sig = WTERMSIG(status);
          m.ext_detail = "external kill while mid-run";
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && !m.has_error) {
          m.has_error = true;
          m.err_kind = kErrOther;
          m.err_msg = "mp[socket]: rank " + std::to_string(r) + " exited with status " +
                      std::to_string(WEXITSTATUS(status)) + " without reporting an error";
        }
        announce_exit(r);
        const bool failed = m.killed_frame || m.external ||
                            (m.has_error && m.err_kind != kErrWorldAborted);
        if (failed) trigger_abort();
        continue;
      }
      // Hang detection: a rank whose heartbeat went silent is declared dead
      // and SIGKILLed — it then feeds the exact abort/respawn path a planned
      // kill does, just with an "external" diagnosis.
      if (ms_between(m.hb, now) > cfg_.heartbeat_timeout_ms) {
        m.external = true;
        m.ext_sig = SIGKILL;
        m.ext_detail = "heartbeat silent for " +
                       std::to_string(static_cast<long>(ms_between(m.hb, now))) + " ms";
        m.hb = now;  // one kill per silence
        ::kill(static_cast<pid_t>(m.pid), SIGKILL);
      }
    }
  }

  for (int r = 0; r < n; ++r) pids_[static_cast<std::size_t>(r)].store(0);

  // All ranks reaped and drained. Rethrow deterministically: the lowest-rank
  // primary failure wins; secondary WorldAbortedError unwindings surface
  // solely when no primary exists — the in-process contract, verbatim.
  for (int r = 0; r < n; ++r) {
    const ChildMon& m = mon[static_cast<std::size_t>(r)];
    if (m.killed_frame) throw RankKilledError(r, m.kill_op);
    if (m.external) throw RankKilledError(RankKilledError::External{}, r, m.ext_sig, m.ext_detail);
    if (m.has_error && m.err_kind != kErrWorldAborted) {
      switch (m.err_kind) {
        case kErrTransport:
          throw TransportError(m.err_msg);
        case kErrInvalidArgument:
          throw std::invalid_argument(m.err_msg);
        case kErrLogic:
          throw std::logic_error(m.err_msg);
        default:
          throw std::runtime_error(m.err_msg);
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    const ChildMon& m = mon[static_cast<std::size_t>(r)];
    if (m.has_error && m.err_kind == kErrWorldAborted)
      throw WorldAbortedError("rank " + std::to_string(r) + " unwound: " + m.err_msg);
  }
}

}  // namespace treesvd::mp
