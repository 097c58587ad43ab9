#pragma once
/// \file tcp.hpp
/// Real asynchronous TCP deployment of the protocol state machines — the
/// counterpart of the paper's tokio-based Rust implementation (§VI-C).
///
/// Every protocol in this repo is a transport-agnostic net::Protocol; this
/// module runs them over genuine kernel sockets:
///   * full mesh of TCP connections over localhost (tests/examples) or any
///     reachable addresses;
///   * length-framed, HMAC-SHA256-authenticated links (transport/frame.hpp)
///     with pairwise keys from crypto::KeyStore — the paper's authenticated
///     channels; per-link HMAC midstates are derived once at connection
///     setup (crypto::HmacKey), so a frame tag costs two compression
///     finishes, not a key schedule;
///   * one thread per node, poll(2)-driven non-blocking I/O with no timeout
///     ticks: loops block until socket activity or a wakeup-fd signal
///     (net/wakeup.hpp) and cross-thread stop/termination notifications are
///     event-driven, so idle nodes burn no CPU and shutdown is immediate
///     (the one exception: frames held back by the netem shim bound the
///     poll timeout by their next release time);
///   * broadcasts encode the frame body once and share the immutable buffer
///     across all n-1 links (only the per-link MAC differs); pending frames
///     are gathered into a single writev(2) per ready socket;
///   * each node's protocol runs strictly single-threaded (the Protocol
///     contract);
///   * TCP gives per-link FIFO, so fifo-dependent codecs are sound here.
///
/// Unlike the simulator, messages here are *really* serialized, framed,
/// MAC'd, transmitted, re-parsed and verified — the codec paths the simulator
/// only accounts for. The byte counts of the two substrates agree by
/// construction (net::framed_size), which the transport tests assert.
///
/// Typed message bodies are recovered from payload bytes by a per-deployment
/// `Decoder` (see transport/decoders.hpp for the standard protocol suites).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/netem.hpp"
#include "transport/node_host.hpp"

namespace delphi::transport {

/// Bytes of one hello. The counted form (recovery mode, see
/// Options::recovery) appends a u64 after the prefix: how many complete
/// frames the sender has received from the destination on this link across
/// all its incarnations; the other side replays exactly the suffix of its
/// send log the count says is missing. The legacy (uncounted) hello stays
/// byte-identical to the pre-recovery wire format.
std::size_t hello_size(bool auth, bool counted);

/// Encode the hello node `self` opens a link with — the first bytes on
/// every link: magic | u32 id | [u64 recv] | [HMAC tag under the pairwise
/// `key`, covering the id and the count]. `key` = nullptr on plaintext
/// deployments; `recv` selects the counted form. Without the tag, a keyless
/// attacker racing the mesh bring-up could claim a legitimate node id and
/// black-hole that link (frames would fail their MACs, but the real peer's
/// connection would already have been rejected as a duplicate).
std::vector<std::uint8_t> encode_hello(NodeId self, const crypto::Key* key,
                                       std::optional<std::uint64_t> recv = {});

/// A parsed hello: the claimed initiator id and, in the counted form, its
/// receive count.
struct Hello {
  NodeId id = 0;
  std::uint64_t recv = 0;
};

/// The one hello parser. `bytes` must be exactly hello_size(keys != nullptr,
/// counted) long. With `keys` (authenticated deployments) the tag is checked
/// under the pairwise key between `self` and the claimed id. Returns nullopt
/// for a wrong size or magic, a claimed id with no key (out of range or
/// `self`), or a failed tag — a connection to reject. The caller decides
/// which ids may dial it.
std::optional<Hello> decode_hello(std::span<const std::uint8_t> bytes,
                                  bool counted, NodeId self,
                                  const crypto::KeyStore* keys);

/// A full-mesh TCP cluster of n nodes, one OS thread each, on 127.0.0.1.
///
/// Usage:
///   TcpCluster cluster(opts);
///   cluster.start(factory, decoder);   // spawns threads, connects the mesh
///   bool ok = cluster.wait();          // all honest protocols terminated?
///   auto& p = cluster.protocol(i);     // read outputs (after wait())
///
/// Mesh bring-up runs through the connection supervisor: node i dials every
/// lower id (non-blocking connect, retried with backoff) and accepts every
/// higher id, and starts its protocol once all of its own links are up. A
/// node whose mesh is not complete by `timeout_ms` fails with "tcp: mesh
/// setup timeout".
class TcpCluster final : public SocketCluster {
 public:
  struct Options {
    std::size_t n = 4;
    /// HMAC-authenticate every frame (pairwise keys from `seed`).
    bool auth = true;
    /// Master secret / per-node RNG seed.
    std::uint64_t seed = 1;
    /// wait() gives up after this many milliseconds of wall time.
    std::int64_t timeout_ms = 30'000;
    /// Disable Nagle's algorithm on every link (latency over batching; the
    /// scenario layer exposes this as the `nodelay` param).
    bool nodelay = true;
    /// Network emulation applied per directed link at the send boundary
    /// (inert by default). Delay-only on TCP: the stream has no frame-level
    /// recovery, so drop verdicts are ignored — the scenario layer rejects
    /// loss configs on this substrate.
    net::netem::Config netem;
    /// Churn schedule (wall µs since cluster start). Non-empty implies
    /// `recovery`. A dark node closes every socket (peers see EOF /
    /// connection refused) and rejoins at up_us: it rebinds its listen port,
    /// re-dials lower ids, and higher ids re-dial it with backoff.
    std::vector<net::ChurnWindow> churn;
    /// Enable the connection supervisor + catch-up plane even without a
    /// churn schedule: steady-state accepts of re-connections from known
    /// peers, re-dial with exponential backoff and deterministic jitter,
    /// half-open handshake deadlines, per-link replay logs, and a two-way
    /// hello carrying the receiver's frame count so the sender replays
    /// exactly the undelivered suffix. Off (the default) keeps the wire
    /// format and connection lifecycle byte-identical to the pre-recovery
    /// transport.
    bool recovery = false;
    /// Per-link replay log byte budget in recovery mode. Drop-oldest beyond
    /// it (graceful degradation: a rejoining peer that out-lived the budget
    /// misses the dropped prefix and relies on protocol-level redundancy).
    std::size_t replay_budget_bytes = std::size_t{32} << 20;
  };

  explicit TcpCluster(Options opts);

  const Options& options() const noexcept { return opts_; }

 private:
  class Node;

  int open_socket(std::uint16_t& port) override;
  std::unique_ptr<NodeHost> make_node(NodeHost::Setup s, int fd) override;

  Options opts_;
};

}  // namespace delphi::transport
