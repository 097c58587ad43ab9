#pragma once
/// \file counters.hpp
/// The per-node counter record and the restart window shared by every
/// substrate: the simulator, both socket hosts and the scenario RunReport
/// speak these two types, so a counter added here reaches all of them.

#include <cstdint>

#include "common/types.hpp"

namespace delphi::net {

/// Per-node traffic, termination and recovery counters.
struct NodeCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< framed bytes, self-delivery excluded
  std::uint64_t msgs_delivered = 0;
  std::uint64_t malformed_dropped = 0;
  /// Termination time (simulated µs); -1 if never, or on the socket
  /// substrates (which have no per-node clock worth reporting).
  SimTime terminated_at = -1;
  // Churn/recovery plane (all zero on churn-free runs — see SCENARIOS.md
  // "Churn & recovery" for the metrics schema):
  /// Link re-establishments (TCP) / socket rebinds (UDP) this node took
  /// part in; under sim, one per restart window hitting the node.
  std::uint64_t reconnects = 0;
  /// Catch-up traffic carried for/by this node: replayed frames (TCP), ARQ
  /// retransmissions (UDP), frames deferred past a dark window (sim; their
  /// bytes are already in the sender's bytes_sent). Transport recovery
  /// overhead — NEVER added to honest_bytes/honest_msgs, so cross-substrate
  /// parity is unaffected by churn.
  std::uint64_t catchup_frames = 0;
  std::uint64_t catchup_bytes = 0;
  /// Total time this node spent dark across its restarts (ms).
  std::uint64_t downtime_ms = 0;

  bool operator==(const NodeCounters&) const = default;
};

/// One scheduled restart of node `id`: dark from `down_us` to `up_us` (µs
/// since run start — simulated time under sim, wall time since cluster
/// start on sockets).
struct ChurnWindow {
  NodeId id = 0;
  SimTime down_us = 0;
  SimTime up_us = 0;
};

}  // namespace delphi::net
