#include "transport/tcp.hpp"

#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <queue>
#include <string>

#include "common/error.hpp"

namespace delphi::transport {

namespace {

constexpr std::uint32_t kHelloMagic = 0x44504849;  // "IHPD" LE == "DPHI"
constexpr std::size_t kHelloPrefixSize = 8;        // magic + id

/// Frames gathered per writev(2): the portable IOV_MAX floor (1024 entries
/// = up to 512 authenticated frames per syscall). The iovec array is pooled
/// per node, so the only cost of a large gather is the syscalls it saves.
constexpr std::size_t kMaxIovs = 1024;

/// Frames at most this large (body + tag) are memcpy'd into a pooled
/// staging buffer so a run of small frames becomes ONE iovec — the kernel's
/// per-iovec bookkeeping costs more than copying ~a hundred bytes. Larger
/// bodies are referenced zero-copy.
constexpr std::size_t kStageFrameLimit = 256;

/// Staged bytes gathered per writev attempt. Caps the copy work done per
/// syscall so a deep backlog behind a slow receiver costs O(backlog) total
/// staging, not O(backlog²) — one writev drains about a socket buffer
/// (~208 KiB default), so re-staging at most this much per attempt keeps
/// the repeated-copy overhead near constant. Also the pooled capacity of
/// stage_, reserved once, so mid-gather reallocation (which would
/// invalidate iovec pointers) cannot happen.
constexpr std::size_t kStageByteBudget = 256 * 1024;

/// How long a dial attempt or a pending accept may sit without completing
/// its hello before it is declared half-open and dropped.
constexpr SimTime kDialTimeoutUs = 2'000'000;

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

crypto::Digest hello_tag(const crypto::Key& key, NodeId initiator,
                         const std::uint64_t* recv) {
  ByteWriter w(24);
  w.u32(kHelloMagic);
  w.u32(initiator);
  if (recv != nullptr) w.u64(*recv);  // tag covers the receive count
  w.str("hello");
  return crypto::hmac_sha256(key, w.data());
}

/// Write a whole hello on a freshly connected socket. A hello (<= 48 bytes)
/// always fits an empty send buffer, so a short write means the peer is
/// gone — the caller drops the connection.
bool send_hello(int fd, const std::vector<std::uint8_t>& hello) {
  return ::write(fd, hello.data(), hello.size()) ==
         static_cast<ssize_t>(hello.size());
}

}  // namespace

// -------------------------------------------------------------------- hello

std::size_t hello_size(bool auth, bool counted) {
  return kHelloPrefixSize + (counted ? 8 : 0) +
         (auth ? crypto::kMacTagSize : 0);
}

std::vector<std::uint8_t> encode_hello(NodeId self, const crypto::Key* key,
                                       std::optional<std::uint64_t> recv) {
  const std::uint64_t* count = recv.has_value() ? &*recv : nullptr;
  ByteWriter w(hello_size(key != nullptr, count != nullptr));
  w.u32(kHelloMagic);
  w.u32(self);
  if (count != nullptr) w.u64(*count);
  if (key != nullptr) w.raw(hello_tag(*key, self, count));
  return w.take();
}

std::optional<Hello> decode_hello(std::span<const std::uint8_t> bytes,
                                  bool counted, NodeId self,
                                  const crypto::KeyStore* keys) {
  if (bytes.size() != hello_size(keys != nullptr, counted)) return std::nullopt;
  ByteReader r(bytes);
  if (r.u32() != kHelloMagic) return std::nullopt;
  Hello h;
  h.id = r.u32();
  if (counted) h.recv = r.u64();
  if (keys == nullptr) return h;
  if (h.id >= keys->size() || h.id == self) return std::nullopt;
  crypto::Digest received;
  const auto tag = r.raw(crypto::kMacTagSize);
  std::memcpy(received.data(), tag.data(), received.size());
  const auto expected = hello_tag(keys->channel_key(self, h.id), h.id,
                                  counted ? &h.recv : nullptr);
  if (!crypto::digest_equal(expected, received)) return std::nullopt;
  return h;
}

// --------------------------------------------------------------------- Node

/// The stream link layer: one TCP connection per peer, brought up and
/// re-established by the connection supervisor (node i dials every lower
/// id, accepts every higher id), plus the replay logs, the netem holdback
/// heap and the gathered writev data plane.
class TcpCluster::Node final : public NodeHost {
 public:
  Node(Setup s, int listen_fd, const Options& opts,
       const crypto::KeyStore& keys, const std::vector<std::uint16_t>& ports)
      : NodeHost(std::move(s)),
        opts_(opts),
        keys_(keys),
        ports_(ports),
        listen_fd_(listen_fd),
        // Backoff jitter gets its own deterministic stream so the
        // supervisor never perturbs the protocol's rng() draws.
        jitter_rng_(opts.seed ^ (0xc2b2ae3d27d4eb4fULL * (self_ + 2))),
        recovery_(opts.recovery) {
    peers_.resize(n_);
    for (NodeId j = 0; j < n_; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      if (opts_.auth) {
        // One HMAC key schedule per link lifetime: the midstates serve both
        // outgoing tags and the parser's verification.
        p.mac.emplace(keys_.channel_key(self_, j));
        p.parser = FrameParser(&*p.mac);
      }
      if (opts_.netem.active()) {
        p.shim = net::netem::LinkShim(opts_.netem, self_, j);
      }
    }
    rbuf_.resize(64 * 1024);
  }

  ~Node() override {
    for (auto& p : peers_) {
      if (p.fd >= 0) ::close(p.fd);
      if (p.dial_fd >= 0) ::close(p.dial_fd);
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

 private:
  /// One queued outbound frame: the shared destination-independent body and
  /// this link's MAC tag (meaningful only on authenticated links).
  struct PendingFrame {
    SharedFrameBody body;
    crypto::Digest tag;
  };

  struct Peer {
    int fd = -1;
    /// Precomputed pairwise HMAC midstates (send tags + parser verify).
    std::optional<crypto::HmacKey> mac;
    FrameParser parser;
    /// Netem emulation for this directed link (inert unless configured).
    net::netem::LinkShim shim;
    std::deque<PendingFrame> outq;
    /// Bytes of outq.front() already on the wire (may point into the tag).
    std::size_t front_written = 0;
    /// Last writev hit EAGAIN: wait for POLLOUT instead of re-trying.
    bool blocked = false;

    // ---- recovery mode only (inert when Options::recovery is off) ----
    /// Sequence number of log.front(); earlier frames fell off the budget.
    std::uint64_t log_start = 0;
    /// Bounded replay log of sent frames (drop-oldest past the byte
    /// budget). A rejoining peer's hello says how many frames it received;
    /// the suffix beyond that is replayed.
    std::deque<PendingFrame> log;
    std::size_t log_bytes = 0;
    /// Complete frames parsed from this peer across all link incarnations
    /// (the cumulative ack our hellos carry).
    std::uint64_t recv_count = 0;

    // ---- dial state machine (this side dials iff self > peer id) ----
    int dial_fd = -1;
    bool dial_hello_sent = false;
    std::vector<std::uint8_t> dial_buf;  ///< reply-hello bytes so far
    SimTime redial_at = -1;              ///< next attempt (-1: none due)
    SimTime dial_deadline = 0;           ///< abort a stalled attempt
    std::uint32_t redial_attempts = 0;
  };

  /// An accepted connection whose hello has not fully arrived; dropped at
  /// `deadline` (half-open / slow-loris defense).
  struct PendingAccept {
    int fd = -1;
    std::vector<std::uint8_t> buf;
    SimTime deadline = 0;
  };

  /// A frame the netem shim is holding back from the wire until `release`.
  struct HeldFrame {
    SimTime release = 0;
    std::uint64_t order = 0;
    NodeId to = 0;
    PendingFrame frame;
  };
  struct HeldLater {
    bool operator()(const HeldFrame& a, const HeldFrame& b) const {
      return a.release != b.release ? a.release > b.release
                                    : a.order > b.order;
    }
  };

  /// What a pollfds_ entry (beyond the wakeup fd) refers to.
  enum class FdKind : std::uint8_t { kPeer, kDial, kListen, kAccept };
  struct PollOwner {
    FdKind kind;
    NodeId idx;  ///< peer id (kPeer/kDial) or accepts_ index (kAccept)
  };

  // ---- link hooks ---------------------------------------------------------

  void enqueue(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    if (!recovery_ && p.fd < 0) {
      return;  // link closed for good: bytes would never reach the wire
    }
    PendingFrame pf;
    pf.body = body;
    if (p.mac.has_value()) pf.tag = frame_tag(*p.mac, *body);
    if (recovery_) log_frame(p, pf);
    if (p.fd < 0) return;  // link down: the log replays this on reconnect
    if (p.shim.active()) {
      const SimTime now = now_us();
      const auto v =
          p.shim.on_send(now, frame_wire_size(*body, p.mac.has_value()));
      // Delay-only on TCP (drop verdicts ignored — see Options::netem): a
      // future release parks the frame on the holdback heap; serve() moves
      // it to the outq when due.
      if (v.release_us > now) {
        held_.push({v.release_us, v.order, to, std::move(pf)});
        return;
      }
    }
    p.outq.push_back(std::move(pf));
  }

  /// Bring the mesh up under the connection supervisor: every lower-id link
  /// starts due for a dial, higher ids dial us, and the node returns (so
  /// the host starts its protocol) once all of its own links are up. Links
  /// are not read until then.
  void bring_up(const std::atomic<bool>& stop) override {
    for (NodeId j = 0; j < self_; ++j) peers_[j].redial_at = 0;
    const SimTime deadline = opts_.timeout_ms * 1000;
    while (!mesh_complete()) {
      if (stop.load(std::memory_order_relaxed)) {
        throw Error("tcp: mesh setup interrupted");
      }
      if (now_us() >= deadline) throw Error("tcp: mesh setup timeout");
      serve(deadline);
    }
    mesh_up_ = true;
    if (!recovery_) {
      // Legacy links are never re-established: the listen socket is no
      // longer serviced and stray connections are dropped.
      for (auto& pa : accepts_) ::close(pa.fd);
      accepts_.clear();
    }
  }

  /// One pass of the event loop: supervise connections, write everything
  /// writable, then block in poll(2) until socket activity, a wakeup
  /// signal, or the next timer (netem release, churn transition, dial or
  /// handshake deadline) — none at all in the churn-free steady state.
  void serve(SimTime wake_at) override {
    const bool supervise = recovery_ || !mesh_up_;
    if (supervise) supervisor_tick();
    if (!held_.empty()) release_held(now_us());
    flush_pending();

    pollfds_.clear();
    owners_.clear();
    pollfds_.push_back({wake_.fd(), POLLIN, 0});
    owners_.push_back({FdKind::kPeer, self_});  // placeholder, aligned
    for (NodeId j = 0; j < n_; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && mesh_up_) {
        short events = POLLIN;
        if (p.blocked && !p.outq.empty()) events |= POLLOUT;
        pollfds_.push_back({p.fd, events, 0});
        owners_.push_back({FdKind::kPeer, j});
      }
      if (p.dial_fd >= 0) {
        // Writable = connect finished; readable = reply-hello bytes.
        pollfds_.push_back(
            {p.dial_fd, p.dial_hello_sent ? short(POLLIN) : short(POLLOUT),
             0});
        owners_.push_back({FdKind::kDial, j});
      }
    }
    if (supervise && listen_fd_ >= 0) {
      pollfds_.push_back({listen_fd_, POLLIN, 0});
      owners_.push_back({FdKind::kListen, 0});
    }
    for (std::size_t a = 0; a < accepts_.size(); ++a) {
      pollfds_.push_back({accepts_[a].fd, POLLIN, 0});
      owners_.push_back({FdKind::kAccept, static_cast<NodeId>(a)});
    }

    if (::poll(pollfds_.data(), pollfds_.size(), poll_timeout(wake_at)) < 0) {
      if (errno == EINTR) return;
      sys_fail("poll");
    }
    if (pollfds_[0].revents != 0) wake_.drain();  // stop re-checked by caller

    for (std::size_t i = 1; i < pollfds_.size(); ++i) {
      const PollOwner owner = owners_[i];
      switch (owner.kind) {
        case FdKind::kPeer: {
          Peer& p = peers_[owner.idx];
          if (p.fd < 0) break;
          if (pollfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) {
            read_peer(owner.idx, p);
          }
          if (p.fd >= 0 && (pollfds_[i].revents & POLLOUT)) {
            p.blocked = false;
            flush_peer(owner.idx, p);
          }
          drain_local();
          break;
        }
        case FdKind::kDial:
          if (pollfds_[i].revents != 0) {
            progress_dial(owner.idx, peers_[owner.idx]);
          }
          break;
        case FdKind::kListen:
          if (pollfds_[i].revents & POLLIN) accept_connections();
          break;
        case FdKind::kAccept:
          // Handled wholesale below: progress_accepts() compacts the
          // vector, which would invalidate the owner indices here.
          break;
      }
    }
    if (!accepts_.empty()) progress_accepts();
    note_termination();
  }

  /// Dark: close every socket (peers observe EOF / refused connections).
  void close_links() override {
    for (NodeId j = 0; j < n_; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      if (p.fd >= 0) {
        ::close(p.fd);
        p.fd = -1;
      }
      p.outq.clear();
      p.front_written = 0;
      p.blocked = false;
      p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
      abort_dial(p);
      p.redial_at = -1;
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    accepts_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    held_ = {};  // held frames are all in the replay logs already
  }

  /// Restart: rebind the published listen port and re-dial every lower id
  /// (higher ids re-dial us once they see the port is back).
  void reopen_links() override {
    std::uint16_t port = ports_[self_];
    listen_fd_ = bind_tcp_listener(port);
    for (NodeId j = 0; j < self_; ++j) {
      peers_[j].redial_attempts = 0;
      peers_[j].redial_at = now_us();  // dial now, back off on failure
    }
  }

  // ---- data plane ---------------------------------------------------------

  /// Move every held frame whose release time has arrived onto its link's
  /// output queue, in (release, order) order — which realizes the burst
  /// adversary's within-window LIFO on a real stream.
  void release_held(SimTime now) {
    while (!held_.empty() && held_.top().release <= now) {
      HeldFrame h = std::move(const_cast<HeldFrame&>(held_.top()));
      held_.pop();
      Peer& p = peers_[h.to];
      if (p.fd >= 0) p.outq.push_back(std::move(h.frame));
    }
  }

  /// Next forced poll wakeup: the host's `wake_at`, netem releases, due
  /// dials, dial/accept handshake deadlines. -1 (block forever) when none
  /// apply — the common, churn-free steady state.
  int poll_timeout(SimTime wake_at) const {
    SimTime at = wake_at;
    const auto consider = [&at](SimTime t) {
      if (t >= 0 && (at < 0 || t < at)) at = t;
    };
    if (!held_.empty()) consider(held_.top().release);
    if (recovery_ || !mesh_up_) {
      for (const Peer& p : peers_) {
        consider(p.redial_at);
        if (p.dial_fd >= 0) consider(p.dial_deadline);
      }
      for (const auto& pa : accepts_) consider(pa.deadline);
    }
    return poll_ms(at);
  }

  /// Opportunistic write pass: one gathered writev per peer with pending
  /// frames (peers that already hit EAGAIN wait for POLLOUT instead).
  void flush_pending() {
    for (NodeId j = 0; j < n_; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && !p.blocked && !p.outq.empty()) flush_peer(j, p);
    }
  }

  void read_peer(NodeId from, Peer& p) {
    while (true) {
      const ssize_t k = ::read(p.fd, rbuf_.data(), rbuf_.size());
      if (k > 0) {
        p.parser.feed({rbuf_.data(), static_cast<std::size_t>(k)});
        pump_frames(from, p);
        if (p.fd < 0) return;  // stream poisoned during pump
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EOF or hard error: peer done sending; drop the link.
      close_link(from, p);
      return;
    }
  }

  void pump_frames(NodeId from, Peer& p) {
    while (true) {
      std::optional<FrameView> f;
      try {
        // Zero-copy: the view borrows the parser's buffer.
        f = p.parser.next_view();
      } catch (const Error&) {
        // Framing/MAC broken: the byte stream is unrecoverable.
        ++counters_.malformed_dropped;
        close_link(from, p);
        return;
      }
      if (!f) return;
      // A fully parsed frame advances the cumulative ack our recovery
      // hellos carry, decodable payload or not (the sender counts frames
      // written the same way).
      if (recovery_) ++p.recv_count;
      deliver(from, f->channel, f->payload);
    }
  }

  /// Gather queued frames (shared bodies + per-link tags) into iovecs and
  /// push them with as few writev(2) calls as the socket accepts.
  void flush_peer(NodeId j, Peer& p) {
    const std::size_t tag_len =
        p.mac.has_value() ? crypto::kMacTagSize : 0;
    while (!p.outq.empty()) {
      iov_.clear();
      stage_.clear();

      // The (possibly partially written) front frame goes out directly.
      auto it = p.outq.begin();
      {
        const auto& body = *it->body;
        std::size_t skip = p.front_written;
        if (skip < body.size()) {
          iov_.push_back({const_cast<std::uint8_t*>(body.data()) + skip,
                          body.size() - skip});
          skip = 0;
        } else {
          skip -= body.size();
        }
        if (tag_len > 0 && skip < tag_len) {
          iov_.push_back({const_cast<std::uint8_t*>(it->tag.data()) + skip,
                          tag_len - skip});
        }
        ++it;
      }

      // Fixed staging capacity: iovecs point into stage_, so it must not
      // reallocate while the gather is being built; the gather loop stops
      // before exceeding it.
      stage_.reserve(kStageByteBudget);

      // Gather the rest: small frames extend the current staged run (one
      // iovec per run), large bodies are referenced zero-copy.
      bool run_open = false;
      for (auto jt = it; jt != p.outq.end(); ++jt) {
        if (iov_.size() + 2 > kMaxIovs) break;
        const auto& body = *jt->body;
        const std::size_t total = body.size() + tag_len;
        if (total <= kStageFrameLimit) {
          if (stage_.size() + total > kStageByteBudget) break;
          const std::size_t off = stage_.size();
          stage_.insert(stage_.end(), body.begin(), body.end());
          if (tag_len > 0) {
            stage_.insert(stage_.end(), jt->tag.begin(),
                          jt->tag.begin() + tag_len);
          }
          if (run_open) {
            iov_.back().iov_len += total;
          } else {
            iov_.push_back({stage_.data() + off, total});
            run_open = true;
          }
        } else {
          iov_.push_back(
              {const_cast<std::uint8_t*>(body.data()), body.size()});
          if (tag_len > 0) {
            iov_.push_back(
                {const_cast<std::uint8_t*>(jt->tag.data()), tag_len});
          }
          run_open = false;
        }
      }
      const ssize_t k =
          ::writev(p.fd, iov_.data(), static_cast<int>(iov_.size()));
      if (k > 0) {
        advance_outq(p, static_cast<std::size_t>(k), tag_len);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        p.blocked = true;
        return;
      }
      close_link(j, p);
      return;
    }
  }

  /// Retire fully-written frames after a writev of `written` bytes.
  void advance_outq(Peer& p, std::size_t written, std::size_t tag_len) {
    p.front_written += written;
    while (!p.outq.empty()) {
      const std::size_t frame_total = p.outq.front().body->size() + tag_len;
      if (p.front_written < frame_total) break;
      p.front_written -= frame_total;
      p.outq.pop_front();
    }
  }

  void close_link(NodeId j, Peer& p) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.outq.clear();
    p.front_written = 0;
    p.blocked = false;
    if (recovery_) {
      // Supervisor takes over: fresh parser for the next incarnation and,
      // when we are the link's initiator, a backoff-paced re-dial.
      p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
      schedule_redial(j, p, /*reset_backoff=*/true);
    }
  }

  // ---- recovery plane -----------------------------------------------------

  /// Append a sent frame to the link's bounded replay log (drop-oldest past
  /// the byte budget — graceful degradation while the peer is down).
  void log_frame(Peer& p, const PendingFrame& pf) {
    const bool auth = p.mac.has_value();
    p.log.push_back(pf);
    p.log_bytes += frame_wire_size(*pf.body, auth);
    while (p.log_bytes > opts_.replay_budget_bytes && !p.log.empty()) {
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth);
      p.log.pop_front();
      ++p.log_start;
    }
  }

  /// Queue the log suffix beyond the peer's cumulative receive count.
  /// Counted as catch-up traffic, never as new sends — honest-byte parity
  /// across substrates is preserved by construction.
  void replay_to(Peer& p, std::uint64_t peer_recv) {
    const bool auth = p.mac.has_value();
    while (!p.log.empty() && p.log_start < peer_recv) {
      // The hello's receive count acknowledges this prefix: prune it.
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth);
      p.log.pop_front();
      ++p.log_start;
    }
    for (const PendingFrame& pf : p.log) {
      ++counters_.catchup_frames;
      counters_.catchup_bytes += frame_wire_size(*pf.body, auth);
      p.outq.push_back(pf);
    }
  }

  /// Remove netem-held frames destined to j: they are in the replay log,
  /// and the fresh handshake replays them — releasing the held copies too
  /// would deliver duplicates.
  void drop_held_for(NodeId j) {
    if (held_.empty()) return;
    std::vector<HeldFrame> keep;
    keep.reserve(held_.size());
    while (!held_.empty()) {
      HeldFrame h = std::move(const_cast<HeldFrame&>(held_.top()));
      held_.pop();
      if (h.to != j) keep.push_back(std::move(h));
    }
    for (auto& h : keep) held_.push(std::move(h));
  }

  // ---- connection supervisor ----------------------------------------------

  bool mesh_complete() const {
    for (NodeId j = 0; j < n_; ++j) {
      if (j != self_ && peers_[j].fd < 0) return false;
    }
    return true;
  }

  const crypto::Key* key_for(NodeId j) const {
    return opts_.auth ? &keys_.channel_key(self_, j) : nullptr;
  }

  /// Our hello to peer j: counted (our receive count) in recovery mode, the
  /// one-way legacy form otherwise.
  std::vector<std::uint8_t> hello_to(NodeId j) const {
    return encode_hello(self_, key_for(j),
                        recovery_ ? std::optional(peers_[j].recv_count)
                                  : std::nullopt);
  }

  /// Arm the next dial attempt for a lower-id peer: exponential backoff
  /// (2 ms base, doubling per failure, 250 ms cap) plus deterministic
  /// jitter from the node's seeded jitter stream. Higher-id peers dial us,
  /// so for them this is a no-op. Gives up once the next attempt would land
  /// past the cluster deadline (capped retries).
  void schedule_redial(NodeId j, Peer& p, bool reset_backoff) {
    if (j >= self_) return;  // that side initiates
    if (reset_backoff) p.redial_attempts = 0;
    constexpr SimTime kBase = 2'000;
    constexpr SimTime kCap = 250'000;
    SimTime delay =
        std::min(kCap, kBase << std::min<std::uint32_t>(p.redial_attempts, 7));
    delay += static_cast<SimTime>(
        jitter_rng_.below(static_cast<std::uint64_t>(delay / 4 + 1)));
    const SimTime at = now_us() + delay;
    if (at > opts_.timeout_ms * 1'000) {
      p.redial_at = -1;  // nothing past the run deadline can matter
      return;
    }
    p.redial_at = at;
  }

  /// Supervisor pass: abort stalled dial attempts, start due dials, and
  /// drop half-open pending accepts.
  void supervisor_tick() {
    const SimTime now = now_us();
    for (NodeId j = 0; j < self_; ++j) {
      Peer& p = peers_[j];
      if (p.dial_fd >= 0 && now >= p.dial_deadline) {
        // Half-open: the connect or the hello reply never completed.
        fail_dial(j, p);
      }
      if (p.fd < 0 && p.dial_fd < 0 && p.redial_at >= 0 &&
          now >= p.redial_at) {
        start_dial(j, p);
      }
    }
    for (std::size_t a = 0; a < accepts_.size();) {
      if (now >= accepts_[a].deadline) {
        ::close(accepts_[a].fd);
        accepts_[a] = std::move(accepts_.back());
        accepts_.pop_back();
      } else {
        ++a;
      }
    }
  }

  /// Begin one non-blocking dial attempt to a lower-id peer.
  void start_dial(NodeId j, Peer& p) {
    p.redial_at = -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(dial)");
    set_nonblocking(fd);
    sockaddr_in addr = loopback_addr(ports_[j]);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      ++p.redial_attempts;
      schedule_redial(j, p, false);
      return;
    }
    p.dial_fd = fd;
    p.dial_hello_sent = false;
    p.dial_buf.clear();
    p.dial_deadline = now_us() + kDialTimeoutUs;
  }

  /// Advance a dial attempt: finish the connect and send our hello. A
  /// legacy link is up right there; a recovery link first reads and
  /// verifies the peer's counted reply.
  void progress_dial(NodeId j, Peer& p) {
    if (p.dial_fd < 0) return;
    if (!p.dial_hello_sent) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(p.dial_fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fail_dial(j, p);
        return;
      }
      if (opts_.nodelay) set_nodelay(p.dial_fd);
      if (!send_hello(p.dial_fd, hello_to(j))) {
        fail_dial(j, p);
        return;
      }
      p.dial_hello_sent = true;
      if (!recovery_) adopt_link(j, p, take_dial(p), 0);
      return;
    }
    const std::size_t want = hello_size(opts_.auth, true);
    while (p.dial_buf.size() < want) {
      std::uint8_t tmp[64];
      const ssize_t k = ::read(p.dial_fd, tmp, want - p.dial_buf.size());
      if (k > 0) {
        p.dial_buf.insert(p.dial_buf.end(), tmp, tmp + k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail_dial(j, p);  // EOF or hard error before the full reply
      return;
    }
    const auto reply =
        decode_hello(p.dial_buf, true, self_, opts_.auth ? &keys_ : nullptr);
    if (!reply || reply->id != j) {
      fail_dial(j, p);
      return;
    }
    adopt_link(j, p, take_dial(p), reply->recv);
  }

  /// Detach the dial socket from the dial state machine.
  int take_dial(Peer& p) {
    const int fd = p.dial_fd;
    p.dial_fd = -1;
    p.dial_hello_sent = false;
    p.dial_buf.clear();
    return fd;
  }

  void fail_dial(NodeId j, Peer& p) {
    abort_dial(p);
    ++p.redial_attempts;
    schedule_redial(j, p, false);
  }

  void abort_dial(Peer& p) {
    const int fd = take_dial(p);
    if (fd >= 0) ::close(fd);
  }

  /// Accept every queued connection; hellos complete asynchronously in
  /// progress_accepts() under a deadline.
  void accept_connections() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (opts_.nodelay) set_nodelay(fd);
      set_nonblocking(fd);
      accepts_.push_back({fd, {}, now_us() + kDialTimeoutUs});
    }
  }

  void progress_accepts() {
    const std::size_t want = hello_size(opts_.auth, recovery_);
    for (std::size_t a = 0; a < accepts_.size();) {
      PendingAccept& pa = accepts_[a];
      std::uint8_t tmp[64];
      const ssize_t k = ::read(pa.fd, tmp, want - pa.buf.size());
      if (k > 0) pa.buf.insert(pa.buf.end(), tmp, tmp + k);
      const bool dead =
          k == 0 || (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
      const bool settled = !dead && pa.buf.size() == want;
      if (dead || (settled && !accept_hello(pa))) ::close(pa.fd);
      if (dead || settled) {
        accepts_[a] = std::move(accepts_.back());
        accepts_.pop_back();
      } else {
        ++a;
      }
    }
  }

  /// Verify a complete hello on an accepted connection and adopt it as the
  /// claimed peer's link (replying with our own counted hello in recovery
  /// mode). Only higher ids dial us, and while the mesh is coming up a
  /// second hello for a link that is already up is rejected as a duplicate.
  /// Returns false to reject the connection: stranger, forger, or nonsense.
  bool accept_hello(const PendingAccept& pa) {
    const auto h = decode_hello(pa.buf, recovery_, self_,
                                opts_.auth ? &keys_ : nullptr);
    if (!h || h->id <= self_ || h->id >= n_) return false;
    Peer& p = peers_[h->id];
    if (!mesh_up_ && p.fd >= 0) return false;
    // Two-way in recovery mode: the dialer replays its undelivered suffix
    // symmetrically once it has read our receive count.
    if (recovery_ && !send_hello(pa.fd, hello_to(h->id))) return false;
    adopt_link(h->id, p, pa.fd, h->recv);
    return true;
  }

  /// Install a freshly handshaken socket as peer j's link and replay the
  /// log suffix the peer's hello says it is missing. A still-open old fd is
  /// replaced (reconnect-during-handshake race: the newest handshake wins).
  /// Only re-establishments count as reconnects, not the initial mesh.
  void adopt_link(NodeId j, Peer& p, int fd, std::uint64_t peer_recv) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = fd;
    p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
    p.outq.clear();
    p.front_written = 0;
    p.blocked = false;
    p.redial_at = -1;
    if (!mesh_up_) return;
    drop_held_for(j);
    ++counters_.reconnects;
    replay_to(p, peer_recv);
  }

  Options opts_;
  const crypto::KeyStore& keys_;
  std::vector<std::uint16_t> ports_;
  int listen_fd_;
  Rng jitter_rng_;
  bool recovery_ = false;
  /// Every link came up once and the protocol runs.
  bool mesh_up_ = false;
  std::vector<Peer> peers_;
  std::priority_queue<HeldFrame, std::vector<HeldFrame>, HeldLater> held_;
  std::vector<PendingAccept> accepts_;
  /// Pooled scratch reused across the node's lifetime (no per-iteration or
  /// per-read allocations in the steady state).
  std::vector<std::uint8_t> rbuf_;
  std::vector<pollfd> pollfds_;
  std::vector<PollOwner> owners_;
  std::vector<iovec> iov_;
  std::vector<std::uint8_t> stage_;
};

// ------------------------------------------------------------------ Cluster

TcpCluster::TcpCluster(Options opts)
    : SocketCluster("TcpCluster", opts.n, opts.seed, opts.auth,
                    opts.timeout_ms, opts.churn),
      opts_(std::move(opts)) {
  if (!opts_.churn.empty()) opts_.recovery = true;
}

int TcpCluster::open_socket(std::uint16_t& port) {
  return bind_tcp_listener(port);
}

std::unique_ptr<NodeHost> TcpCluster::make_node(NodeHost::Setup s, int fd) {
  return std::make_unique<Node>(std::move(s), fd, opts_, keys_, ports_);
}

}  // namespace delphi::transport
