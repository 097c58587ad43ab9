#pragma once
/// \file node_host.hpp
/// The socket node host shared by the TCP and UDP substrates.
///
/// A socket node is a net::Context around one protocol instance on its own
/// thread. Everything that does not depend on the wire lives here, once:
///   * the Context itself — self/n/rng, a clock relative to the cluster's
///     shared epoch, send/broadcast with the frame body serialized once and
///     self-sends on a local queue;
///   * the receive step — decode, expect_exhausted, dispatch, drain the
///     local queue, note termination — with malformed payloads counted;
///   * the churn schedule — go dark, snapshot a RestartableProtocol, park,
///     rebuild it from bytes, come back up;
///   * the thread body, with error capture and a post-join snapshot restore.
///
/// The link layer (TCP streams or UDP datagrams) plugs in behind four hooks:
/// enqueue a frame body for a peer, serve the link event loop once, close
/// every link, reopen them. TCP additionally overrides bring_up() to connect
/// its mesh before the protocol starts.
///
/// SocketCluster is the matching cluster side: node threads, the shared
/// epoch, churn-window validation, and the start/wait/observer API that
/// TcpCluster and UdpMesh expose.

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/counters.hpp"
#include "net/protocol.hpp"
#include "net/wakeup.hpp"
#include "transport/frame.hpp"

namespace delphi::transport {

/// Recovers a typed message from payload bytes arriving on `channel`.
/// Throws SerializationError / ProtocolViolation on malformed input (the
/// transport counts and drops the frame).
using Decoder =
    std::function<net::MessagePtr(std::uint32_t channel, ByteReader& r)>;

/// A node thread that died with an error: which node and why (exception
/// text, typically carrying errno). Recorded by the clusters' wait().
struct NodeFailure {
  NodeId id = 0;
  std::string message;

  bool operator==(const NodeFailure&) const = default;
};

// ------------------------------------------------------------ socket helpers

/// Throw Error("<what>: <strerror(errno)>").
[[noreturn]] void sys_fail(const std::string& what);

void set_nonblocking(int fd);

sockaddr_in loopback_addr(std::uint16_t port);

/// A listening TCP socket on 127.0.0.1:`port` (0 = OS-assigned; a non-zero
/// port is how a restarted node reclaims its published identity), with
/// SO_REUSEADDR, non-blocking. Returns the fd; `port` holds the bound port.
int bind_tcp_listener(std::uint16_t& port);

/// A non-blocking UDP socket on 127.0.0.1:`port` (0 = OS-assigned) with
/// 1 MiB buffers (a whole netem burst window may release at one instant).
/// Rebinding a given port also sets SO_REUSEADDR. Returns the fd; `port`
/// holds the bound port.
int bind_udp_socket(std::uint16_t& port);

// ----------------------------------------------------------------- NodeHost

class NodeHost : public net::Context {
 public:
  using Clock = std::chrono::steady_clock;

  /// What a cluster hands each node at start().
  struct Setup {
    NodeId self = 0;
    std::size_t n = 0;
    std::uint64_t seed = 0;
    bool auth = true;
    Clock::time_point epoch;
    /// The cluster-wide restart schedule (the host keeps its own windows).
    std::vector<net::ChurnWindow> churn;
    std::unique_ptr<net::Protocol> protocol;
    /// Re-creates the protocol for a snapshot restart (set iff churn).
    std::function<std::unique_ptr<net::Protocol>()> rebuild;
    Decoder decoder;
    net::WakeupFd* done_wake = nullptr;
  };

  explicit NodeHost(Setup s);

  // ---- net::Context -------------------------------------------------------
  NodeId self() const override { return self_; }
  std::size_t n() const override { return n_; }
  /// Microseconds since cluster start — the clock the netem shim schedules
  /// against (partition heal times are cluster-relative, like sim time).
  SimTime now() const override { return now_us(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override;
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override;
  void charge_compute(SimTime) override {}  // real cycles are already spent
  Rng& rng() override { return rng_; }

  // ---- lifecycle ----------------------------------------------------------

  /// Entire node life: link bring-up, protocol start, event loop, churn.
  /// Runs on the node's own thread; never touches other nodes.
  void run(const std::atomic<bool>& stop);

  /// Interrupt this node's (possibly indefinite) poll. Any thread.
  void wake() noexcept { wake_.signal(); }

  std::atomic<bool> done{false};
  /// This node's thread has returned from run() (error or stop).
  std::atomic<bool> exited{false};

  net::Protocol& protocol() { return *protocol_; }
  const net::NodeCounters& counters() const { return counters_; }
  const std::string& error() const { return error_; }

 protected:
  // ---- link hooks ---------------------------------------------------------
  /// Queue one frame body for peer `to` (never self). Already counted in
  /// msgs_sent/bytes_sent.
  virtual void enqueue(NodeId to, const SharedFrameBody& body) = 0;
  /// One pass of the link event loop: push out what is due, block in
  /// poll(2) on the links and wake_ until activity or `wake_at` (µs on this
  /// host's clock; -1 = no deadline), and handle what arrived.
  virtual void serve(SimTime wake_at) = 0;
  /// Going dark: close every socket.
  virtual void close_links() = 0;
  /// Coming back: rebind and re-establish the links.
  virtual void reopen_links() = 0;
  /// Establish the links before the protocol starts (default: nothing to
  /// do). Throws to fail the node.
  virtual void bring_up(const std::atomic<bool>& /*stop*/) {}

  // ---- services for the link layer ----------------------------------------
  SimTime now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// poll(2) timeout until `at` on this host's clock: -1 (block) when
  /// at < 0, else whole ms rounded up, clamped to [0, 60 s].
  int poll_ms(SimTime at) const;

  /// The receive step for one frame from `from`: decode, dispatch, drain
  /// the local queue, note termination. A payload that fails to decode is
  /// counted in malformed_dropped and dropped.
  void deliver(NodeId from, std::uint32_t channel,
               std::span<const std::uint8_t> payload);

  /// Deliver every queued self-message (handlers may enqueue more).
  void drain_local();
  void note_termination();

  const NodeId self_;
  const std::size_t n_;
  const bool auth_;
  net::WakeupFd wake_;
  net::NodeCounters counters_;

 private:
  void dispatch(NodeId from, std::uint32_t channel,
                const net::MessageBody& body);
  void churn_tick();
  void go_down(SimTime up_at);
  void come_up();
  void restore_protocol();
  void park_dark();

  Clock::time_point epoch_;
  std::unique_ptr<net::Protocol> protocol_;
  std::function<std::unique_ptr<net::Protocol>()> rebuild_;
  Decoder decoder_;
  net::WakeupFd& done_wake_;
  Rng rng_;
  bool started_ = false;  ///< on_start ran
  std::deque<std::pair<std::uint32_t, net::MessagePtr>> local_;
  /// This node's own restart schedule (sorted by down_us) and dark state.
  std::vector<net::ChurnWindow> windows_;
  std::size_t next_window_ = 0;
  bool down_ = false;
  SimTime up_at_ = 0;
  SimTime down_since_ = 0;
  std::uint64_t downtime_us_ = 0;
  /// Serialized RestartableProtocol state across a dark window.
  std::vector<std::uint8_t> snapshot_;
  bool have_snapshot_ = false;
  std::string error_;
};

// ------------------------------------------------------------- SocketCluster

/// A full mesh of n socket nodes, one OS thread each, on 127.0.0.1:
///
///   cluster.start(factory, decoder);   // bind sockets, spawn node threads
///   bool ok = cluster.wait();          // all protocols terminated?
///   auto& p = cluster.protocol(i);     // read outputs (after wait())
class SocketCluster {
 public:
  /// Shared factory alias from net/protocol.hpp (same type the simulator
  /// harness and scenario runtimes consume).
  using ProtocolFactory = net::ProtocolFactory;

  virtual ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Bind every node's socket, create protocols, spawn node threads (each
  /// brings its links up and starts its protocol). Call exactly once.
  void start(const ProtocolFactory& factory, Decoder decoder);

  /// Block until every node's protocol terminated or the timeout expires,
  /// then stop and join all threads. A node thread that dies ends the wait
  /// early, once the other nodes have settled or a 250 ms grace ran out.
  /// Returns true iff all terminated; otherwise unfinished() names the
  /// nodes that had not.
  bool wait();

  /// Node ids whose protocols had not terminated when wait() gave up, in
  /// ascending order (empty iff wait() returned true). Only safe after
  /// wait() returned.
  const std::vector<NodeId>& unfinished() const;

  /// Nodes whose threads died with an error (exception text, typically
  /// carrying errno), in ascending id order. Only safe after wait()
  /// returned.
  const std::vector<NodeFailure>& failures() const;

  /// Node i's protocol. Only safe after wait() returned (threads joined).
  net::Protocol& protocol(NodeId id);

  /// Node i's counters (logical sends only: replays, retransmissions and
  /// acks are catch-up traffic, not protocol traffic). Only safe after
  /// wait() returned.
  const net::NodeCounters& metrics(NodeId id) const;

  /// Resolved port of node i (set by start()).
  std::uint16_t port(NodeId id) const;

 protected:
  /// Validates n >= 1 and the churn windows (ConfigError prefixed `name`).
  SocketCluster(const char* name, std::size_t n, std::uint64_t seed,
                bool auth, std::int64_t timeout_ms,
                std::vector<net::ChurnWindow> churn);

  /// Bind one node's socket (TCP listener / UDP datagram socket) on an
  /// OS-assigned port, stored in `port`.
  virtual int open_socket(std::uint16_t& port) = 0;
  /// Wrap a node's setup and its pre-bound socket in the link layer.
  virtual std::unique_ptr<NodeHost> make_node(NodeHost::Setup s, int fd) = 0;

  const char* name_;
  crypto::KeyStore keys_;
  std::vector<std::uint16_t> ports_;

 private:
  /// Set the stop flag and wake every node's event loop (idempotent).
  void request_stop();
  std::string what(const char* msg) const { return std::string(name_) + msg; }

  std::size_t n_;
  std::uint64_t seed_;
  bool auth_;
  std::int64_t timeout_ms_;
  std::vector<net::ChurnWindow> churn_;
  std::vector<std::unique_ptr<NodeHost>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<NodeId> unfinished_;
  std::vector<NodeFailure> failures_;
  std::atomic<bool> stop_{false};
  /// Signaled by nodes on protocol termination (and thread exit) so wait()
  /// blocks in poll() instead of sleeping on a timer.
  net::WakeupFd done_wake_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace delphi::transport
