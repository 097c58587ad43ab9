#include "transport/node_host.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace delphi::transport {

// ------------------------------------------------------------ socket helpers

void sys_fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

namespace {

/// socket + (optional SO_REUSEADDR) + bind on 127.0.0.1:`port`; resolves an
/// OS-assigned port into `port`.
int bind_loopback(int type, std::uint16_t& port, bool reuse_addr) {
  const std::string kind = type == SOCK_STREAM ? "tcp" : "udp";
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) sys_fail("socket(" + kind + ")");
  if (reuse_addr) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    sys_fail("bind(" + kind + " port " + std::to_string(port) + ")");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    sys_fail("getsockname(" + kind + ")");
  }
  port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

int bind_tcp_listener(std::uint16_t& port) {
  const int fd = bind_loopback(SOCK_STREAM, port, /*reuse_addr=*/true);
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    sys_fail("listen");
  }
  set_nonblocking(fd);
  return fd;
}

int bind_udp_socket(std::uint16_t& port) {
  // Only a rebind reuses the address: an OS-assigned bind must get a port
  // no other socket holds.
  const int fd = bind_loopback(SOCK_DGRAM, port, /*reuse_addr=*/port != 0);
  const int bufsz = 1 << 20;  // best-effort: drops are recoverable anyway
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  set_nonblocking(fd);
  return fd;
}

// ----------------------------------------------------------------- NodeHost

NodeHost::NodeHost(Setup s)
    : self_(s.self),
      n_(s.n),
      auth_(s.auth),
      epoch_(s.epoch),
      protocol_(std::move(s.protocol)),
      rebuild_(std::move(s.rebuild)),
      decoder_(std::move(s.decoder)),
      done_wake_(*s.done_wake),
      rng_(s.seed ^ (0x9e3779b97f4a7c15ULL * (s.self + 1))) {
  for (const auto& w : s.churn) {
    if (w.id == self_) windows_.push_back(w);
  }
  std::sort(windows_.begin(), windows_.end(),
            [](const net::ChurnWindow& a, const net::ChurnWindow& b) {
              return a.down_us < b.down_us;
            });
}

void NodeHost::send(NodeId to, std::uint32_t channel, net::MessagePtr msg) {
  DELPHI_ASSERT(to < n_, "socket send: bad destination");
  if (to == self_) {
    local_.emplace_back(channel, std::move(msg));
    return;
  }
  const SharedFrameBody body = encode_frame_body(channel, *msg, auth_);
  // Counted at the logical send (the simulator's send-time accounting),
  // even if the link has died since; replays, retransmissions and acks are
  // transport overhead, never traffic.
  ++counters_.msgs_sent;
  counters_.bytes_sent += frame_wire_size(*body, auth_);
  enqueue(to, body);
}

void NodeHost::broadcast(std::uint32_t channel, net::MessagePtr msg) {
  // One serialization for all destinations: the body (length prefix +
  // channel + payload) is immutable and shared; only per-link tags differ.
  const SharedFrameBody body = encode_frame_body(channel, *msg, auth_);
  const std::size_t wire = frame_wire_size(*body, auth_);
  for (NodeId j = 0; j < n_; ++j) {
    if (j == self_) {
      local_.emplace_back(channel, msg);
    } else {
      ++counters_.msgs_sent;
      counters_.bytes_sent += wire;
      enqueue(j, body);
    }
  }
}

void NodeHost::run(const std::atomic<bool>& stop) {
  try {
    bring_up(stop);
    started_ = true;
    protocol_->on_start(*this);
    drain_local();
    note_termination();
    // Event-driven main loop: the link layer blocks in poll(2) until socket
    // activity, a wakeup signal, or its own next timer — no sleep ticks.
    while (!stop.load(std::memory_order_relaxed)) {
      if (!windows_.empty()) {
        churn_tick();
        if (down_) {
          park_dark();
          continue;
        }
      }
      serve(next_window_ < windows_.size() ? windows_[next_window_].down_us
                                           : -1);
    }
  } catch (const std::exception& e) {
    error_ = e.what();
  }
  if (have_snapshot_) {
    // Stopped (or died) while dark: rebuild the protocol from its snapshot
    // so outputs stay harvestable after the join.
    try {
      restore_protocol();
    } catch (const std::exception& e) {
      if (error_.empty()) error_ = e.what();
    }
  }
  // A thread that exits un-terminated is dead for good; wake wait() so it
  // can fail fast instead of sleeping out the whole deadline.
  exited.store(true, std::memory_order_release);
  done_wake_.signal();
}

int NodeHost::poll_ms(SimTime at) const {
  if (at < 0) return -1;
  const SimTime ms = (at - now_us()) / 1000 + 1;
  return static_cast<int>(std::clamp<SimTime>(ms, 0, 60'000));
}

void NodeHost::deliver(NodeId from, std::uint32_t channel,
                       std::span<const std::uint8_t> payload) {
  try {
    // Zero-copy: the decoder reads straight out of the link's buffer.
    ByteReader r(payload);
    const net::MessagePtr msg = decoder_(channel, r);
    r.expect_exhausted();
    dispatch(from, channel, *msg);
  } catch (const Error&) {
    ++counters_.malformed_dropped;  // bad payload only: the link stays up
  }
  drain_local();
  note_termination();
}

void NodeHost::drain_local() {
  while (!local_.empty()) {
    auto [channel, msg] = std::move(local_.front());
    local_.pop_front();
    dispatch(self_, channel, *msg);
  }
}

void NodeHost::dispatch(NodeId from, std::uint32_t channel,
                        const net::MessageBody& body) {
  try {
    protocol_->on_message(*this, from, channel, body);
    ++counters_.msgs_delivered;
  } catch (const Error&) {
    ++counters_.malformed_dropped;
  }
}

void NodeHost::note_termination() {
  // Not before on_start, nor in the dark window of a snapshot restart.
  if (!started_ || protocol_ == nullptr) return;
  if (!done.load(std::memory_order_relaxed) && protocol_->terminated()) {
    done.store(true, std::memory_order_release);
    done_wake_.signal();  // wait() blocks on this instead of a timer
  }
}

// -------------------------------------------------------------------- churn

void NodeHost::churn_tick() {
  if (!down_ && next_window_ < windows_.size() &&
      now_us() >= windows_[next_window_].down_us) {
    go_down(windows_[next_window_].up_us);
    ++next_window_;
  }
  if (down_ && now_us() >= up_at_) come_up();
}

void NodeHost::go_down(SimTime up_at) {
  down_ = true;
  up_at_ = up_at;
  down_since_ = now_us();
  close_links();
  // A RestartableProtocol is serialized and destroyed — the rejoin rebuilds
  // it from bytes, proving the snapshot path end to end. Other protocols
  // keep their in-memory state across the dark window and rely on
  // message-level redundancy (or the link layer's catch-up) to recover.
  if (rebuild_) {
    if (auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get())) {
      ByteWriter w(256);
      rp->snapshot(w);
      snapshot_ = w.take();
      have_snapshot_ = true;
      protocol_.reset();
    }
  }
}

void NodeHost::come_up() {
  down_ = false;
  downtime_us_ += static_cast<std::uint64_t>(now_us() - down_since_);
  counters_.downtime_ms = downtime_us_ / 1000;
  reopen_links();
  if (have_snapshot_) restore_protocol();
  drain_local();
  note_termination();
}

void NodeHost::restore_protocol() {
  protocol_ = rebuild_();
  auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get());
  DELPHI_ASSERT(rp != nullptr, "restart: factory lost snapshot support");
  ByteReader r(snapshot_);
  rp->restore(r);
  snapshot_.clear();
  have_snapshot_ = false;
}

void NodeHost::park_dark() {
  // Every socket is closed: nothing to do but wait for the restart clock or
  // the cluster stop signal (re-checked by the caller's loop on return).
  pollfd pf{wake_.fd(), POLLIN, 0};
  ::poll(&pf, 1, poll_ms(up_at_));
  if (pf.revents != 0) wake_.drain();
}

// ------------------------------------------------------------- SocketCluster

namespace {

/// How long wait() lets the other nodes settle after one died.
constexpr std::chrono::milliseconds kSettleGrace{250};

}  // namespace

SocketCluster::SocketCluster(const char* name, std::size_t n,
                             std::uint64_t seed, bool auth,
                             std::int64_t timeout_ms,
                             std::vector<net::ChurnWindow> churn)
    : name_(name),
      keys_(seed, n),
      ports_(n, 0),
      n_(n),
      seed_(seed),
      auth_(auth),
      timeout_ms_(timeout_ms),
      churn_(std::move(churn)) {
  if (n_ < 1) throw ConfigError(what(": n must be >= 1"));
  for (const auto& w : churn_) {
    if (w.id >= n_) throw ConfigError(what(": churn id out of range"));
    if (w.up_us <= w.down_us) {
      throw ConfigError(what(": churn window needs up_us > down_us"));
    }
  }
}

SocketCluster::~SocketCluster() {
  request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void SocketCluster::request_stop() {
  stop_.store(true);
  for (auto& node : nodes_) node->wake();
}

void SocketCluster::start(const ProtocolFactory& factory, Decoder decoder) {
  DELPHI_ASSERT(!started_, what(": start() called twice"));
  started_ = true;

  // Bind every socket before any thread runs: every connect() finds a live
  // backlog, and no datagram goes to a port that is not bound yet.
  std::vector<int> fds(n_, -1);
  for (NodeId i = 0; i < n_; ++i) fds[i] = open_socket(ports_[i]);
  // One shared epoch so every node's shim schedules partition heals and
  // burst windows (and its churn windows) against the same t=0.
  const auto epoch = NodeHost::Clock::now();
  nodes_.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    NodeHost::Setup s;
    s.self = i;
    s.n = n_;
    s.seed = seed_;
    s.auth = auth_;
    s.epoch = epoch;
    s.churn = churn_;
    s.protocol = factory(i);
    if (!churn_.empty()) {
      // The restart path re-creates the protocol from the same factory and
      // feeds it the snapshot; configuration is the factory's to re-supply.
      s.rebuild = [factory, i] { return factory(i); };
    }
    s.decoder = decoder;
    s.done_wake = &done_wake_;
    nodes_.push_back(make_node(std::move(s), fds[i]));
  }
  threads_.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    threads_.emplace_back([this, i] { nodes_[i]->run(stop_); });
  }
}

bool SocketCluster::wait() {
  DELPHI_ASSERT(started_, what(": wait() before start()"));
  auto deadline =
      NodeHost::Clock::now() + std::chrono::milliseconds(timeout_ms_);
  bool dead_node = false;
  // Block on the done wakeup-fd (nodes signal termination transitions and
  // thread exits) instead of polling flags on a timer.
  while (true) {
    bool settled = true;
    for (const auto& node : nodes_) {
      if (node->done.load(std::memory_order_acquire)) continue;
      if (!node->exited.load(std::memory_order_acquire)) {
        settled = false;
      } else if (!dead_node) {
        // An exited-but-unterminated node (mesh failure, protocol
        // exception) can never become done, so the run's outcome is
        // already a fixed false — fail fast instead of sleeping out the
        // deadline, after a short grace in which the survivors finish
        // starting or terminate, so that unfinished() and failures() name
        // only the nodes at fault rather than whoever the stop caught
        // mid-bring-up.
        dead_node = true;
        deadline = std::min(deadline, NodeHost::Clock::now() + kSettleGrace);
      }
    }
    if (settled) break;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - NodeHost::Clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{done_wake_.fd(), POLLIN, 0};
    // Clamped so arbitrarily large timeouts can't overflow poll's int arg;
    // the loop re-checks the deadline after every wakeup anyway.
    ::poll(&pfd, 1,
           static_cast<int>(std::min<std::int64_t>(remaining.count(), 60'000)));
    done_wake_.drain();
  }
  request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // With threads joined the flags are final: record who never terminated so
  // timeouts are diagnosable (which nodes, not just "false").
  unfinished_.clear();
  failures_.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->done.load(std::memory_order_acquire)) {
      unfinished_.push_back(i);
    }
    if (!nodes_[i]->error().empty()) {
      failures_.push_back({i, nodes_[i]->error()});
    }
  }
  joined_ = true;
  // The joined flags are authoritative (a node may have terminated between
  // the last poll and the join).
  return unfinished_.empty();
}

const std::vector<NodeId>& SocketCluster::unfinished() const {
  DELPHI_ASSERT(joined_, what(": unfinished() before wait()"));
  return unfinished_;
}

const std::vector<NodeFailure>& SocketCluster::failures() const {
  DELPHI_ASSERT(joined_, what(": failures() before wait()"));
  return failures_;
}

net::Protocol& SocketCluster::protocol(NodeId id) {
  DELPHI_ASSERT(joined_, what(": protocol() before wait()"));
  DELPHI_ASSERT(id < nodes_.size(), what(": bad node id"));
  return nodes_[id]->protocol();
}

const net::NodeCounters& SocketCluster::metrics(NodeId id) const {
  DELPHI_ASSERT(joined_, what(": metrics() before wait()"));
  DELPHI_ASSERT(id < nodes_.size(), what(": bad node id"));
  return nodes_[id]->counters();
}

std::uint16_t SocketCluster::port(NodeId id) const {
  DELPHI_ASSERT(id < ports_.size(), what(": bad node id"));
  return ports_[id];
}

}  // namespace delphi::transport
