/// perfbench — the repository benchmark: Delphi agreement latency,
/// throughput, CPU and memory on one workload per process, with every
/// agreement's outputs checked.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// --trace 0 measures the end-to-end metrics with the probe only stamping
/// instance opens and terminations. --trace 1 runs the same inputs untraced
/// and traced and prints the per-layer split (see perfbench/README.md). The
/// last stdout line is the result object; the line before it carries the
/// host descriptor, the seed, the scenario spec and the per-batch values.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "delphi/params.hpp"
#include "layers.hpp"
#include "probe.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace scenario = delphi::scenario;
using Inputs = std::vector<std::vector<double>>;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Spans kept per thread for the trace file.
constexpr std::size_t kSpanCap = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val, &used);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val, &used);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
    if (used != 0 && used != val.size()) {
      throw std::invalid_argument("malformed value for " + key + ": " + val);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

void set_delphi_params(scenario::ScenarioSpec& s, const delphi::protocol::DelphiParams& p) {
  s.params["space-min"] = p.space_min;
  s.params["space-max"] = p.space_max;
  s.params["rho0"] = p.rho0;
  s.params["eps"] = p.eps;
  s.params["delta-max"] = p.delta_max;
}

/// The workloads (perfbench/README.md says why each exists).
std::optional<scenario::ScenarioSpec> workload_spec(const std::string& name) {
  scenario::ScenarioSpec s;
  s.protocol = "delphi";
  s.params["auth"] = 1.0;
  if (name == "sim-cps-n85") {
    // The paper's Fig 6c point: CPS testbed, n = 85, delta = 5 m, drone
    // parameters (rho0 = eps = 0.5 m, Delta = 50 m).
    s.substrate = scenario::Substrate::kSim;
    s.testbed = scenario::TestbedKind::kCps;
    s.n = 85;
    s.center = 0.0;
    s.delta = 5.0;
    set_delphi_params(s, delphi::protocol::DelphiParams::drone_cps());
    return s;
  }
  // Socket workloads: n = 4 (t = 1), the oracle-network price feed with the
  // scenario defaults (rho0 = 10, eps = 2, Delta = 2000, delta = 20).
  s.n = 4;
  s.center = 40'000.0;
  s.delta = 20.0;
  delphi::protocol::DelphiParams p = delphi::protocol::DelphiParams::oracle_network();
  p.rho0 = 10.0;
  set_delphi_params(s, p);
  s.instances = 1000;
  if (name == "tcp-seq") {
    s.substrate = scenario::Substrate::kTcp;
    s.mux_mode = scenario::MuxMode::kSequential;
  } else if (name == "tcp-burst") {
    s.substrate = scenario::Substrate::kTcp;
    s.mux_mode = scenario::MuxMode::kConcurrent;
  } else if (name == "udp-loss") {
    s.substrate = scenario::Substrate::kUdp;
    s.mux_mode = scenario::MuxMode::kSequential;
    s.params["loss"] = 0.01;
    s.params["rto-ms"] = 10.0;
  } else {
    return std::nullopt;
  }
  return s;
}

/// Per-instance honest inputs drawn from the workload seed with the
/// clustered generator — the only inputs the program sees.
Inputs make_inputs(const scenario::ScenarioSpec& s, std::uint64_t seed) {
  Inputs in;
  for (std::uint64_t sid = 0; sid < s.instances; ++sid) {
    in.push_back(scenario::clustered_inputs(s.n, s.center, s.delta,
                                            seed * 0x100000ULL + sid));
  }
  return in;
}

/// Process-wide counters read from outside the program.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  long nvcsw = 0;
  long maxrss_kb = 0;
  std::uint64_t syscr = 0;
  std::uint64_t syscw = 0;
};

ProcSample sample_proc() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  s.nvcsw = ru.ru_nvcsw;
  s.maxrss_kb = ru.ru_maxrss;
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t v = 0;
  while (io >> key >> v) {
    if (key == "syscr:") s.syscr = v;
    if (key == "syscw:") s.syscw = v;
  }
  return s;
}

long current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Resets the peak-RSS mark to the current RSS (Linux clear_refs "5").
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

scenario::RunReport run_on(const scenario::ScenarioSpec& spec,
                           const scenario::ProtocolRegistry* reg) {
  switch (spec.substrate) {
    case scenario::Substrate::kTcp:
      return scenario::TcpRuntime(reg).run(spec);
    case scenario::Substrate::kUdp:
      return scenario::UdpRuntime(reg).run(spec);
    case scenario::Substrate::kSim:
      break;
  }
  return scenario::SimRuntime(reg).run(spec);
}

/// One runtime call through the probe registry.
struct Batch {
  std::unique_ptr<Recorder> rec;
  scenario::RunReport report;
  std::int64_t call_start = 0;
  std::int64_t call_end = 0;
  ProcSample before;
  ProcSample after;
  long rss_before_kb = 0;
};

Batch run_batch(const scenario::ScenarioSpec& spec, const Inputs& inputs,
                bool traced) {
  Batch b;
  b.rec = std::make_unique<Recorder>(spec.n, inputs, spec.seed, traced, kSpanCap);
  const auto reg = make_registry(*b.rec);
  b.rss_before_kb = current_rss_kb();
  b.before = sample_proc();
  b.call_start = now_ns();
  b.report = run_on(spec, &reg);
  b.call_end = now_ns();
  b.after = sample_proc();
  return b;
}

/// Outcome of checking one batch's instances.
struct Checked {
  std::vector<double> latency_ms;  ///< per instance; +inf when it failed
  std::size_t failed = 0;
  std::int64_t first_open = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_term = std::numeric_limits<std::int64_t>::min();
};

/// Per instance: every honest node terminated with an output, the outputs
/// lie within eps of each other, and each lies in Delphi's validity envelope
/// [min honest input - max(rho0, delta), max honest input + max(rho0, delta)]
/// where delta is the instance's realized honest range.
Checked check(const Batch& b, const scenario::ScenarioSpec& spec) {
  const Recorder& rec = *b.rec;
  const double eps = spec.param("eps", 0.0);
  const double rho0 = spec.param("rho0", 0.0);
  Checked c;
  for (std::uint32_t sid = 0; sid < rec.instances(); ++sid) {
    const auto& in = rec.inputs(sid);
    const auto [in_lo, in_hi] = std::minmax_element(in.begin(), in.end());
    const double slack = std::max(rho0, *in_hi - *in_lo);
    bool ok = b.report.node_errors.empty();
    double out_lo = kInf, out_hi = -kInf;
    std::int64_t open = std::numeric_limits<std::int64_t>::max();
    std::int64_t term = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < rec.n(); ++i) {
      if (rec.open_ns(sid, i) >= 0) open = std::min(open, rec.open_ns(sid, i));
      const auto& out = rec.output(sid, i);
      if (rec.term_ns(sid, i) < 0 || !out) {
        ok = false;
        continue;
      }
      term = std::max(term, rec.term_ns(sid, i));
      out_lo = std::min(out_lo, *out);
      out_hi = std::max(out_hi, *out);
    }
    ok = ok && out_hi - out_lo <= eps && out_lo >= *in_lo - slack &&
         out_hi <= *in_hi + slack;
    c.first_open = std::min(c.first_open, open);
    if (term >= 0) c.last_term = std::max(c.last_term, term);
    if (ok) {
      c.latency_ms.push_back(static_cast<double>(term - open) / 1e6);
    } else {
      c.latency_ms.push_back(kInf);
      ++c.failed;
    }
  }
  return c;
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return kInf;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median (lower middle for an even count); 0 for no samples.
double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

std::string num(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();  // +inf: a failure
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// End-to-end figures over a run's measured batches: one value per batch
/// (latency percentiles are taken within a batch), summarised by
/// end_to_end().
struct Totals {
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> agreements_per_s;
  std::vector<double> wall_s;  ///< runtime call wall per agreement
  std::vector<double> runtime_ms;
  std::vector<double> honest_kb;
  std::vector<double> cpu_ms;
  std::vector<double> setup_s;
  std::vector<double> teardown_s;  ///< untraced batches only

  /// Counts a checked batch that is not timed (the warm-up).
  void count(const Batch& b, const Checked& c) {
    attempted += b.rec->instances();
    failed += c.failed;
  }

  void add(const Batch& b, const Checked& c) {
    count(b, c);
    p50_ms.push_back(percentile(c.latency_ms, 50.0));
    p99_ms.push_back(percentile(c.latency_ms, 99.0));
    const auto k = static_cast<double>(b.rec->instances());
    if (c.last_term > c.first_open) {
      const auto done = static_cast<double>(b.rec->instances() - c.failed);
      agreements_per_s.push_back(done * 1e9 / static_cast<double>(c.last_term - c.first_open));
      if (!b.rec->traced()) {
        teardown_s.push_back(static_cast<double>(b.call_end - c.last_term) / 1e9);
      }
    }
    add_setup(b);
    wall_s.push_back(static_cast<double>(b.call_end - b.call_start) / 1e9 / k);
    runtime_ms.push_back(b.report.runtime_ms / k);
    honest_kb.push_back(static_cast<double>(b.report.honest_bytes) / 1e3 / k);
    cpu_ms.push_back(((b.after.user_s + b.after.sys_s) - (b.before.user_s + b.before.sys_s)) *
                     1e3 / k);
  }

  /// Every per-batch series, by the metric it summarises to.
  std::string json() const {
    const std::pair<const char*, const std::vector<double>*> series[] = {
        {"agree_ms_p50", &p50_ms},   {"agree_ms_p99", &p99_ms},
        {"agreements_per_s", &agreements_per_s}, {"sim_wall_s", &wall_s},
        {"sim_latency_ms", &runtime_ms}, {"honest_kb_per_agreement", &honest_kb},
        {"cpu_ms_per_agreement", &cpu_ms}, {"setup_s", &setup_s},
        {"teardown_s", &teardown_s}};
    std::string out = "{";
    for (const auto& [name, v] : series) {
      out += (out.size() > 1 ? ", " : "") + json_str(name) + ": [";
      for (std::size_t i = 0; i < v->size(); ++i) out += (i ? ", " : "") + num((*v)[i]);
      out += "]";
    }
    return out + "}";
  }

  /// setup_s: the runtime call to the last node's first on_start.
  void add_setup(const Batch& b) {
    std::int64_t last = -1;
    for (std::size_t i = 0; i < b.rec->n(); ++i) {
      if (b.rec->node_start_ns(i) < 0) return;
      last = std::max(last, b.rec->node_start_ns(i));
    }
    setup_s.push_back(static_cast<double>(last - b.call_start) / 1e9);
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Batches of the simulator repeat bit-identical work, so host contention
/// can only add to their times: each figure is the best batch. Socket
/// batches differ in scheduling, so their figures are medians; set-up
/// redoes the same fixed work every batch and takes the best batch.
std::vector<Metric> end_to_end(const Totals& t, bool deterministic) {
  const auto low = [&](const std::vector<double>& v) {
    return deterministic ? min_of(v) : median(v);
  };
  const auto high = [&](const std::vector<double>& v) {
    return deterministic ? max_of(v) : median(v);
  };
  return {
      {"agree_ms_p50", "ms", low(t.p50_ms)},
      {"agree_ms_p99", "ms", low(t.p99_ms)},
      {"agreements_per_s", "1/s", high(t.agreements_per_s)},
      {"sim_wall_s", "s", low(t.wall_s)},
      {"sim_latency_ms", "ms", low(t.runtime_ms)},
      {"honest_kb_per_agreement", "KB", low(t.honest_kb)},
      {"cpu_ms_per_agreement", "ms", low(t.cpu_ms)},
      {"peak_rss_mb", "MB", static_cast<double>(sample_proc().maxrss_kb) / 1024.0},
      {"setup_s", "s", min_of(t.setup_s)},
  };
}

std::uint64_t node_sum(const scenario::RunReport& r,
                       std::uint64_t scenario::NodeCounters::*field) {
  std::uint64_t s = 0;
  for (const auto& n : r.nodes) s += n.*field;
  return s;
}

/// What the traced batches of a run add up to, and the untraced batches
/// interleaved with them (for the trace overhead).
struct TracedTotals {
  Counters c;
  double instances = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double untraced_wall_s = 0.0;
  double untraced_cpu_s = 0.0;
};

double cpu_s(const Batch& b) {
  return (b.after.user_s + b.after.sys_s) - (b.before.user_s + b.before.sys_s);
}

double wall_s(const Batch& b) { return static_cast<double>(b.call_end - b.call_start) / 1e9; }

/// Per-layer split. Counts and OS counters that need no spans come from the
/// first untraced batch `u`; span totals from the traced batches `t`.
/// `teardown_s` is the best untraced batch's, like set-up: tear-down redoes
/// the same fixed work every batch.
std::vector<Metric> per_layer(const scenario::ScenarioSpec& spec, const Batch& u,
                              const TracedTotals& t, double teardown_s, double fail_frac) {
  const bool sim = spec.substrate == scenario::Substrate::kSim;
  const bool udp = spec.substrate == scenario::Substrate::kUdp;
  const double k = static_cast<double>(u.rec->instances());
  const Counters& c = t.c;
  const auto per_call = [](std::int64_t ns, std::uint64_t calls) {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  };
  const double cpu_u = cpu_s(u);
  const double sys_u = u.after.sys_s - u.before.sys_s;

  const double sent = static_cast<double>(node_sum(u.report, &scenario::NodeCounters::msgs_sent));
  const double delivered =
      static_cast<double>(node_sum(u.report, &scenario::NodeCounters::msgs_delivered));
  const double bytes = static_cast<double>(node_sum(u.report, &scenario::NodeCounters::bytes_sent));
  const double catchup =
      static_cast<double>(node_sum(u.report, &scenario::NodeCounters::catchup_frames));
  const double frame_bytes = sent > 0 ? bytes / sent : 0.0;

  const LayerTimes lt = time_layers(frame_bytes, udp);
  // Every frame sent is tagged once and every frame delivered is verified
  // once on an authenticated socket link; the simulator runs no crypto.
  const double macs = sim ? 0.0 : (sent + delivered) / k;
  const double cpu_ns = cpu_u * 1e9 / k;
  // Span totals per traced agreement.
  const double handler_s = static_cast<double>(c.handler_self_ns) / 1e9 / t.instances;
  const double send_s = static_cast<double>(c.send_ns) / 1e9 / t.instances;
  const double decode_s = static_cast<double>(c.decode_ns) / 1e9 / t.instances;
  const double traced_wall = t.wall_s / t.instances;
  const double traced_cpu = t.cpu_s / t.instances;

  return {
      {"delphi.handler_s", "s", handler_s},
      {"delphi.handler_ns_per_call", "ns", per_call(c.handler_self_ns, c.handler_calls)},
      {"delphi.calls_per_agreement", "count", static_cast<double>(c.handler_calls) / t.instances},
      {"delphi.msgs_per_agreement", "count", static_cast<double>(u.report.honest_msgs) / k},
      {"net.send_s", "s", send_s},
      {"net.send_ns_per_call", "ns", per_call(c.send_ns, c.send_calls)},
      {"net.sends_per_agreement", "count", static_cast<double>(c.send_calls) / t.instances},
      {"net.decode_ns_per_msg", "ns", per_call(c.decode_ns, c.decode_calls)},
      {"net.mux.rss_kb_per_instance", "KB",
       sim ? 0.0 : static_cast<double>(u.after.maxrss_kb - u.rss_before_kb) / k},
      {"scenario.factory_s", "s",
       static_cast<double>(c.factory_ns) / 1e9 * k / t.instances},
      {"sim.engine_s", "s", sim ? traced_wall - handler_s - send_s : 0.0},
      {"sim.deliveries", "count", delivered / k},
      {"sim.deliveries_per_s", "1/s", sim ? delivered / wall_s(u) : 0.0},
      {"transport.loop_cpu_s", "s", sim ? 0.0 : traced_cpu - handler_s - send_s - decode_s},
      {"transport.sys_cpu_frac", "ratio", cpu_u > 0 ? sys_u / cpu_u : 0.0},
      {"transport.vol_ctx_switches_per_agreement", "count",
       static_cast<double>(u.after.nvcsw - u.before.nvcsw) / k},
      {"transport.tcp.reads_per_frame", "count",
       delivered > 0 ? static_cast<double>(u.after.syscr - u.before.syscr) / delivered : 0.0},
      {"transport.tcp.writes_per_frame", "count",
       sent > 0 ? static_cast<double>(u.after.syscw - u.before.syscw) / sent : 0.0},
      {"transport.frame_bytes_mean", "B", frame_bytes},
      {"transport.frame.encode_ns", "ns", lt.encode_ns},
      {"transport.frame.parse_ns", "ns", lt.parse_ns},
      {"transport.frame.encode_cpu_share", "ratio", sim ? 0.0 : lt.encode_ns * sent / k / cpu_ns},
      {"transport.frame.parse_cpu_share", "ratio", sim ? 0.0 : lt.parse_ns * delivered / k / cpu_ns},
      {"transport.udp.retransmit_frac", "ratio", sent > 0 ? catchup / sent : 0.0},
      {"crypto.mac_ns", "ns", lt.mac_ns},
      {"crypto.macs_per_agreement", "count", macs},
      {"crypto.mac_cpu_share", "ratio", lt.mac_ns * macs / cpu_ns},
      {"trace_overhead_frac", "ratio",
       sim ? t.wall_s / t.untraced_wall_s - 1.0 : t.cpu_s / t.untraced_cpu_s - 1.0},
      {"teardown_s", "s", teardown_s},
      {"fail_frac", "ratio", fail_frac},
  };
}

void write_trace(const std::string& path, const Recorder& rec) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "kind,instance,node,start_ns,end_ns\n";
  for (const Span& s : rec.spans()) {
    f << to_string(s.kind) << ',';
    if (s.sid != Span::kNoSid) f << s.sid;
    f << ',';
    if (s.node != Span::kNoSid) f << s.node;
    f << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

std::string host_json() {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"sha256_hw\": " << (delphi::crypto::sha256_hw_accelerated() ? "true" : "false")
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_str(PERFBENCH_COMPILER) << "}";
  return o.str();
}

int run(const Args& a) {
  const auto base = workload_spec(a.workload);
  if (!base) throw std::invalid_argument("unknown workload " + a.workload);
  scenario::ScenarioSpec spec = *base;
  spec.seed = a.seed;
  const Inputs inputs = make_inputs(spec, a.seed);
  const bool sim = spec.substrate == scenario::Substrate::kSim;

  Totals totals;
  std::vector<Metric> metrics;
  std::string selftest = "null";
  bool correct = true;

  const auto measure = [&](bool traced) {
    Batch b = run_batch(spec, inputs, traced);
    totals.add(b, check(b, spec));
    return b;
  };
  // Warm-up batch, checked but not timed: the first batch in a process pays
  // page faults and allocator growth that later batches do not.
  {
    const Batch w = run_batch(spec, inputs, false);
    totals.count(w, check(w, spec));
  }

  if (!a.trace) {
    const std::int64_t begin = now_ns();
    do {
      measure(false);
    } while (static_cast<double>(now_ns() - begin) / 1e9 < a.seconds);
    metrics = end_to_end(totals, sim);
  } else {
    // Hand the warm-up's freed heap back to the kernel so the first
    // untraced batch's RSS growth shows what the mux retains.
    malloc_trim(0);
    reset_peak_rss();
    const Batch u = measure(false);
    // Traced batches, each after an untraced one on the same inputs, until
    // --seconds have passed; the overhead compares their sums.
    TracedTotals tt;
    tt.untraced_wall_s = wall_s(u);
    tt.untraced_cpu_s = cpu_s(u);
    const std::int64_t begin = now_ns();
    for (bool first = true;; first = false) {
      const Batch t = measure(true);
      tt.c.add(t.rec->merged());
      tt.instances += static_cast<double>(t.rec->instances());
      tt.wall_s += wall_s(t);
      tt.cpu_s += cpu_s(t);
      if (first) {
        if (!a.trace_out.empty()) write_trace(a.trace_out, *t.rec);
        if (sim) {
          // Non-perturbation self-test: the untraced and traced probe runs
          // and a plain run on the global registry must report
          // bit-identically.
          scenario::ScenarioSpec plain = spec;
          plain.inputs = inputs.front();
          const bool same =
              u.report == t.report && u.report == scenario::SimRuntime().run(plain);
          correct = correct && same;
          selftest = same ? "true" : "false";
        }
      }
      if (static_cast<double>(now_ns() - begin) / 1e9 >= a.seconds) break;
      const Batch next = measure(false);
      tt.untraced_wall_s += wall_s(next);
      tt.untraced_cpu_s += cpu_s(next);
    }
    metrics = per_layer(spec, u, tt, min_of(totals.teardown_s),
                        static_cast<double>(totals.failed) /
                            static_cast<double>(totals.attempted));
  }
  correct = correct && totals.failed == 0;

  std::printf("{\"perfbench\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"host\": %s, \"spec\": %s, \"attempted\": %zu, "
              "\"selftest\": %s, \"batches\": %s}}\n",
              json_str(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, host_json().c_str(), json_str(spec.to_text()).c_str(),
              totals.attempted, selftest.c_str(), totals.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", totals.attempted, totals.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
