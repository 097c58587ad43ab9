#include "probe.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "net/protocol.hpp"

namespace perfbench {

namespace net = delphi::net;
namespace scenario = delphi::scenario;
using delphi::NodeId;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(Span::Kind k) noexcept {
  switch (k) {
    case Span::kInstance:
      return "instance";
    case Span::kHandler:
      return "handler";
    case Span::kSend:
      return "send";
    case Span::kDecode:
      return "decode";
    case Span::kFactory:
      return "factory";
  }
  return "?";
}

void Counters::add(const Counters& o) {
  handler_calls += o.handler_calls;
  handler_self_ns += o.handler_self_ns;
  send_calls += o.send_calls;
  send_ns += o.send_ns;
  decode_calls += o.decode_calls;
  decode_ns += o.decode_ns;
  factory_ns += o.factory_ns;
}

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

/// Forwards every call to the host's Context, timing send/broadcast as child
/// spans of the handler span that owns this object.
class TracedContext final : public net::Context {
 public:
  TracedContext(net::Context& inner, const Recorder& rec, Counters& c,
                std::uint32_t sid, std::uint32_t node)
      : inner_(inner), rec_(rec), c_(c), sid_(sid), node_(node) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }
  delphi::SimTime now() const override { return inner_.now(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    const std::int64_t t0 = now_ns();
    inner_.send(to, channel, std::move(msg));
    finish(t0);
  }
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    const std::int64_t t0 = now_ns();
    inner_.broadcast(channel, std::move(msg));
    finish(t0);
  }
  void charge_compute(delphi::SimTime us) override { inner_.charge_compute(us); }
  delphi::Rng& rng() override { return inner_.rng(); }

  std::int64_t send_ns() const noexcept { return send_ns_; }

 private:
  void finish(std::int64_t t0) {
    const std::int64_t t1 = now_ns();
    send_ns_ += t1 - t0;
    ++c_.send_calls;
    c_.send_ns += t1 - t0;
    rec_.record(c_, {Span::kSend, sid_, node_, t0, t1});
  }

  net::Context& inner_;
  const Recorder& rec_;
  Counters& c_;
  std::uint32_t sid_;
  std::uint32_t node_;
  std::int64_t send_ns_ = 0;
};

/// One instance at one node, wrapping the suite's protocol.
class Probe final : public net::Protocol {
 public:
  Probe(std::unique_ptr<net::Protocol> inner, Recorder& rec, std::uint32_t sid,
        NodeId node)
      : inner_(std::move(inner)), rec_(rec), sid_(sid), node_(node) {}

  void on_start(net::Context& ctx) override {
    const std::int64_t t0 = now_ns();
    open_ns_ = t0;
    rec_.on_open(sid_, node_, t0);
    if (rec_.traced()) {
      traced(ctx, t0, [this](net::Context& c) { inner_->on_start(c); });
    } else {
      inner_->on_start(ctx);
    }
    settle();
  }

  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    if (rec_.traced()) {
      traced(ctx, now_ns(), [&](net::Context& c) {
        inner_->on_message(c, from, channel, body);
      });
    } else {
      inner_->on_message(ctx, from, channel, body);
    }
    settle();
  }

  bool terminated() const override { return inner_->terminated(); }

  const net::Protocol& inner() const noexcept { return *inner_; }
  std::uint32_t sid() const noexcept { return sid_; }
  NodeId node() const noexcept { return node_; }

 private:
  template <typename F>
  void traced(net::Context& ctx, std::int64_t t0, F&& call) {
    Counters& c = rec_.local();
    TracedContext tc(ctx, rec_, c, sid_, node_);
    call(tc);
    const std::int64_t t1 = now_ns();
    ++c.handler_calls;
    c.handler_self_ns += (t1 - t0) - tc.send_ns();
    rec_.record(c, {Span::kHandler, sid_, node_, t0, t1});
  }

  void settle() {
    if (terminated_ || !inner_->terminated()) return;
    terminated_ = true;
    const std::int64_t t = now_ns();
    rec_.on_terminated(sid_, node_, t);
    if (rec_.traced()) {
      rec_.record(rec_.local(), {Span::kInstance, sid_, node_, open_ns_, t});
    }
  }

  std::unique_ptr<net::Protocol> inner_;
  Recorder& rec_;
  std::uint32_t sid_;
  NodeId node_;
  std::int64_t open_ns_ = -1;
  bool terminated_ = false;
};

/// Adds one factory call to this thread's counters (traced runs only).
void count_factory(Recorder& rec, std::uint32_t sid, std::uint32_t node,
                   std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  Counters& c = rec.local();
  c.factory_ns += t1 - t0;
  rec.record(c, {Span::kFactory, sid, node, t0, t1});
}

}  // namespace

Recorder::Recorder(std::size_t n, std::vector<std::vector<double>> inputs,
                   std::uint64_t base_seed, bool traced, std::size_t span_cap)
    : n_(n),
      inputs_(std::move(inputs)),
      base_seed_(base_seed),
      traced_(traced),
      span_cap_(span_cap),
      open_(n * inputs_.size(), -1),
      term_(n * inputs_.size(), -1),
      node_start_(n, -1),
      outputs_(n * inputs_.size()),
      id_(next_recorder_id()) {
  for (const auto& in : inputs_) {
    if (in.size() != n) throw delphi::ConfigError("perfbench: inputs must have n entries");
  }
}

void Recorder::on_open(std::uint32_t sid, std::size_t node, std::int64_t t) {
  open_[sid * n_ + node] = t;
  if (node_start_[node] < 0) node_start_[node] = t;
}

Counters& Recorder::local() {
  thread_local std::uint64_t owner = 0;
  thread_local Counters* slot = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    slot = &slots_.emplace_back();
    owner = id_;
  }
  return *slot;
}

Counters Recorder::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters total;
  for (const auto& s : slots_) total.add(s);
  return total;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& s : slots_) all.insert(all.end(), s.spans.begin(), s.spans.end());
  return all;
}

scenario::ProtocolRegistry make_registry(Recorder& rec) {
  const scenario::ProtocolInfo& base =
      scenario::ProtocolRegistry::global().require("delphi");
  scenario::ProtocolInfo info = base;

  // The runtime builds instance sid's factory from a spec whose seed is
  // base_seed + sid; the suite's own inputs are replaced by the benchmark's.
  info.make_factory = [&rec, inner = base.make_factory](
                          const scenario::ScenarioSpec& spec,
                          std::vector<double> /*runtime_inputs*/)
      -> net::ProtocolFactory {
    const std::uint64_t sid64 = spec.seed - rec.base_seed();
    if (spec.seed < rec.base_seed() || sid64 >= rec.instances()) {
      throw delphi::ConfigError("perfbench: factory for an unknown instance");
    }
    const auto sid = static_cast<std::uint32_t>(sid64);
    const std::int64_t t0 = rec.traced() ? now_ns() : 0;
    net::ProtocolFactory suite = inner(spec, rec.inputs(sid));
    if (rec.traced()) count_factory(rec, sid, Span::kNoSid, t0);
    return [&rec, sid, suite = std::move(suite)](NodeId i) {
      const std::int64_t t1 = rec.traced() ? now_ns() : 0;
      auto p = std::make_unique<Probe>(suite(i), rec, sid, i);
      if (rec.traced()) count_factory(rec, sid, i, t1);
      return p;
    };
  };

  info.make_decoder = [&rec, inner = base.make_decoder](
                          const scenario::ScenarioSpec& spec)
      -> delphi::transport::Decoder {
    auto decode = inner(spec);
    if (!rec.traced()) return decode;
    return [&rec, decode = std::move(decode)](std::uint32_t channel,
                                              delphi::ByteReader& r) {
      const std::int64_t t0 = now_ns();
      auto msg = decode(channel, r);
      const std::int64_t t1 = now_ns();
      Counters& c = rec.local();
      ++c.decode_calls;
      c.decode_ns += t1 - t0;
      rec.record(c, {Span::kDecode, Span::kNoSid, Span::kNoSid, t0, t1});
      return msg;
    };
  };

  info.harvest = [&rec, inner = base.harvest](const net::Protocol& p,
                                              std::vector<double>& out) {
    const auto* probe = dynamic_cast<const Probe*>(&p);
    if (probe == nullptr) {
      throw delphi::ConfigError("perfbench: harvested a protocol it did not build");
    }
    const std::size_t before = out.size();
    inner(probe->inner(), out);
    if (out.size() == before + 1) {
      rec.on_harvest(probe->sid(), probe->node(), out.back());
    } else if (out.size() > before + 1) {
      throw delphi::ConfigError("perfbench: delphi harvested more than one value");
    }
  };

  scenario::ProtocolRegistry reg;
  reg.add("delphi", std::move(info));
  return reg;
}

}  // namespace perfbench
