#pragma once
/// \file probe.hpp
/// The benchmark's measurement boundary: a private scenario::ProtocolRegistry
/// whose `delphi` entry is a copy of the global one with its factory, decoder
/// and harvester wrapped. The runtimes wrap the entry's per-instance protocols
/// in net::SessionMux, so the wrapper (Probe) sits per instance, inside the
/// mux, on every substrate — and nothing under src/ knows it is there.
///
/// Untraced, a Probe only stamps its instance's open (first on_start) and its
/// first terminated(). Traced, it also records spans around on_start /
/// on_message and around every Context::send / broadcast the handler makes,
/// plus decoder calls and factory calls, into per-thread slots that are
/// merged after the runtime call returns (the runtimes join their node
/// threads before returning).

#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "scenario/registry.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns() noexcept;

/// One recorded span. `sid` is the instance id shared by every span of an
/// instance. `sid` and `node` read kNoSid where the layer cannot see them:
/// the decoder receives the in-window channel only.
struct Span {
  enum Kind : std::uint8_t { kInstance, kHandler, kSend, kDecode, kFactory };
  static constexpr std::uint32_t kNoSid = std::numeric_limits<std::uint32_t>::max();
  Kind kind = kHandler;
  std::uint32_t sid = kNoSid;
  std::uint32_t node = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

const char* to_string(Span::Kind k) noexcept;

/// Per-layer totals at the wrapper boundaries. Handler time is self time:
/// the on_start/on_message span minus the send spans nested inside it.
struct Counters {
  std::uint64_t handler_calls = 0;
  std::int64_t handler_self_ns = 0;
  std::uint64_t send_calls = 0;
  std::int64_t send_ns = 0;
  std::uint64_t decode_calls = 0;
  std::int64_t decode_ns = 0;
  std::int64_t factory_ns = 0;
  /// Spans of this slot kept for the trace file (capped — see
  /// Recorder::record — so a 5-million-delivery simulation does not hold
  /// every span in memory; the totals above cover every call).
  std::vector<Span> spans;

  void add(const Counters& o);
};

/// Everything one runtime call recorded at the wrapper boundaries. Slots
/// indexed [sid * n + node] are written only by that node's thread, and read
/// only after the runtime call returned.
class Recorder {
 public:
  /// `inputs[sid]` are instance sid's honest inputs — what the program sees.
  Recorder(std::size_t n, std::vector<std::vector<double>> inputs,
           std::uint64_t base_seed, bool traced, std::size_t span_cap);

  std::size_t n() const noexcept { return n_; }
  std::size_t instances() const noexcept { return inputs_.size(); }
  std::uint64_t base_seed() const noexcept { return base_seed_; }
  bool traced() const noexcept { return traced_; }
  const std::vector<double>& inputs(std::uint32_t sid) const { return inputs_[sid]; }

  std::int64_t open_ns(std::uint32_t sid, std::size_t node) const {
    return open_[sid * n_ + node];
  }
  std::int64_t term_ns(std::uint32_t sid, std::size_t node) const {
    return term_[sid * n_ + node];
  }
  std::int64_t node_start_ns(std::size_t node) const { return node_start_[node]; }
  const std::optional<double>& output(std::uint32_t sid, std::size_t node) const {
    return outputs_[sid * n_ + node];
  }

  /// This thread's counter slot (created on first use by a thread).
  Counters& local();
  /// All slots merged (call after the runtime returned).
  Counters merged() const;
  /// Every recorded span, all slots.
  std::vector<Span> spans() const;

  // Wrapper-side hooks.
  void on_open(std::uint32_t sid, std::size_t node, std::int64_t t);
  void on_terminated(std::uint32_t sid, std::size_t node, std::int64_t t) {
    term_[sid * n_ + node] = t;
  }
  void on_harvest(std::uint32_t sid, std::size_t node, double v) {
    outputs_[sid * n_ + node] = v;
  }
  /// Keeps every instance and factory span (bounded by instances * n) and
  /// the first `span_cap` of the rest.
  void record(Counters& c, const Span& s) const {
    if (s.kind == Span::kInstance || s.kind == Span::kFactory ||
        c.spans.size() < span_cap_) {
      c.spans.push_back(s);
    }
  }

 private:
  std::size_t n_;
  std::vector<std::vector<double>> inputs_;
  std::uint64_t base_seed_;
  bool traced_;
  std::size_t span_cap_;
  std::vector<std::int64_t> open_;
  std::vector<std::int64_t> term_;
  std::vector<std::int64_t> node_start_;
  std::vector<std::optional<double>> outputs_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::deque<Counters> slots_;  // guarded by mu_ (addresses are stable)
};

/// A registry holding one entry, `delphi`: the global entry with its
/// factory, decoder and harvester wrapped to report into `rec`. `rec` must
/// outlive every run made with the registry.
delphi::scenario::ProtocolRegistry make_registry(Recorder& rec);

}  // namespace perfbench
