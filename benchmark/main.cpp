// dfbench: runs one workload's trials, in passes for a host-time budget
// (the traced run: once each), and prints every metric, then one JSON
// result line.
//
//   dfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--out DIR] [--pins FILE] [--git-rev REV] [--smoke]
//
// --trace 0 (this binary or dfbench_traced) reports the end-to-end metrics;
// --trace 1 (dfbench_traced only) reports the per-layer metrics. Options
// take "--name value" or "--name=value". See README.md for the metrics.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dfbench.hpp"

namespace dfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
  std::string pins;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage_error(const std::string& why) {
  throw std::invalid_argument(why);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size())
    usage_error(std::string("bad ") + what + " \"" + s + "\"");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage_error("unexpected argument " + a);
    a = a.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_value = true;
    }
    if (a == "smoke") {
      o.smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) usage_error("--" + a + " needs a value");
      value = argv[++i];
    }
    if (a == "workload") {
      o.workload = value;
    } else if (a == "seed") {
      o.seed = parse_u64(value, "seed");
    } else if (a == "seconds") {
      const std::uint64_t s = parse_u64(value, "seconds");
      if (s < 1 || s > 3600) usage_error("--seconds must be 1..3600");
      o.seconds = static_cast<double>(s);
    } else if (a == "trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (a == "out") {
      o.out_dir = value;
    } else if (a == "pins") {
      o.pins = value;
    } else if (a == "git-rev") {
      o.git_rev = value;
    } else {
      usage_error("unknown option --" + a);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, p) : "0";
}

/// Pinned digests: lines "<workload> <seed> <32 hex digits>", '#' comments.
std::string pinned_digest(const std::string& path, const std::string& workload,
                          std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, seed_s, digest;
    if (ls >> name >> seed_s >> digest && name == workload &&
        seed_s == std::to_string(seed))
      return digest;
  }
  return {};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies the checks a run makes; every failed check fails the run.
struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "dfbench: FAILED: %s\n", what.c_str());
  }
};

/// Host-speed reference: a fixed kernel shaped like an event loop (a binary
/// heap of 4096 timers; each pop updates a pseudo-random cell of a 2 MiB
/// table) in the benchmark's own code, so no change to the simulator moves
/// it. On a shared host every program's speed drifts by tens of percent
/// over minutes. Timed next to each trial, it tracks that drift: a time t
/// measured while one step takes r ns is reported as t * kNominalNs / r,
/// the time on a host where a step takes kNominalNs (README, "Host-speed
/// adjustment").
class HostReference {
 public:
  static constexpr double kNominalNs = 125.0;

  /// ns per step now.
  double measure() {
    constexpr int kSteps = 200'000;
    using Timer = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> heap;
    std::uint64_t x = 42;
    for (std::uint32_t id = 0; id < 4096; ++id) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      heap.emplace((x >> 33) % 1000, id);
    }
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int k = 0; k < kSteps; ++k) {
      const auto [t, id] = heap.top();
      heap.pop();
      std::uint64_t& cell = table_[(id * 2654435761ULL + acc) % table_.size()];
      cell += t;
      acc += cell;
      heap.emplace(t + 1 + acc % 97, id);
    }
    const double ns = 1e9 * seconds_since(t0) / kSteps;
    sink_ += acc;
    return ns;
  }

  /// Factor scaling a time measured at `ref_ns` per step to the nominal host.
  static double scale(double ref_ns) { return kNominalNs / ref_ns; }

 private:
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1u << 18);
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

/// Set-up replicas, taken in blocks between trials and spread over the
/// run so that their median spans all of it rather than one moment. Each
/// block first runs one discarded replica, which meets the cold caches the
/// trial before left. Replica r mirrors trial r % w.trials and must
/// reproduce what it set up.
struct SetupSamples {
  static constexpr std::size_t kBlock = 10;
  static constexpr std::size_t kMax = 100;
  std::vector<SetupResult> replicas;
  std::vector<double> scale;  ///< host-speed factor of each replica

  /// Block k is due once k tenths of a `seconds`-long run have passed.
  [[nodiscard]] bool due(double elapsed, double seconds) const {
    const auto blocks = static_cast<double>(replicas.size() / kBlock);
    return replicas.size() < kMax &&
           elapsed >= seconds * blocks / static_cast<double>(kMax / kBlock);
  }

  [[nodiscard]] int next_trial(const Workload& w) const {
    return static_cast<int>(replicas.size() %
                            static_cast<std::size_t>(w.trials));
  }

  /// `ref_ns`: the host reference measured just before the block.
  void block(const Workload& w, std::uint64_t seed, double ref_ns = 0.0) {
    if (replicas.size() >= kMax) return;
    (void)run_setup(w, trial_config(w, seed, next_trial(w)));
    for (std::size_t k = 0; k < kBlock; ++k) {
      replicas.push_back(run_setup(w, trial_config(w, seed, next_trial(w))));
      scale.push_back(ref_ns > 0.0 ? HostReference::scale(ref_ns) : 1.0);
    }
  }

  void check(const Workload& w, const std::vector<SetupFacts>& trials,
             Checks& checks) const {
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const std::size_t trial = r % trials.size();
      const std::string bad =
          setup_mismatch(w, replicas[r].facts, trials[trial]);
      checks.check(bad.empty(), "trial " + std::to_string(trial) + ": " + bad);
    }
  }

  [[nodiscard]] std::vector<double> values(double SetupResult::*field) const {
    std::vector<double> v;
    for (const SetupResult& s : replicas) v.push_back(s.*field);
    return v;
  }

  [[nodiscard]] std::vector<double> scaled_setup_s() const {
    std::vector<double> v;
    for (std::size_t r = 0; r < replicas.size(); ++r)
      v.push_back(replicas[r].setup_s * scale[r]);
    return v;
  }
};

/// One execution of one trial.
struct TrialRecord {
  int trial;
  int pass;
  std::uint64_t seed;
  double wall_s;
  std::uint64_t events;
  double ref_ns;  ///< host reference around the execution (0: not taken)
  std::string digest;
};

struct RunReport {
  std::vector<Metric> metrics;
  /// Printed and written, but not part of the result line's metrics.
  std::vector<Metric> extra;
  std::map<std::string, std::string> notes;
  std::vector<TrialRecord> trials;
  std::vector<double> setup_s;
  std::string digest;  ///< over the workload's trials
  int shard_workers = 0;
};

void add_digest(sim::Hasher128& h, const sim::Hash128& d) {
  h.update_u64(d.hi);
  h.update_u64(d.lo);
}

RunReport run_e2e(const Workload& w, const Options& o, Checks& checks) {
  RunReport rep;
  HostReference reference;
  SetupSamples setups;

  // The workload's trials run in passes until the budget is spent; the
  // first pass always runs whole, and a smoke run stops after it. Every
  // trial keeps its inputs, so a faster build measures more passes over
  // the same trials, and each pass must reproduce the first one's digest.
  const auto n = static_cast<std::size_t>(w.trials);
  std::vector<sim::Hash128> digests(n);
  std::vector<SetupFacts> facts(n);
  const auto t0 = Clock::now();
  const auto time_left = [&] {
    return !o.smoke && seconds_since(t0) < o.seconds;
  };
  for (int pass = 0; pass == 0 || time_left(); ++pass) {
    for (int i = 0; i < w.trials && (pass == 0 || time_left()); ++i) {
      const double ref_ns = reference.measure();
      if (setups.due(seconds_since(t0), o.seconds))
        setups.block(w, o.seed, ref_ns);
      const core::ScenarioConfig c = trial_config(w, o.seed, i);
      const TrialResult t = run_trial(w, c);
      const std::string tag = "trial " + std::to_string(i) + " pass " +
                              std::to_string(pass) + ": ";
      checks.check(t.ok, tag + t.fail_reason);
      const auto k = static_cast<std::size_t>(i);
      if (pass == 0) {
        digests[k] = t.digest;
        facts[k] = t.setup;
      } else {
        checks.check(t.digest == digests[k],
                     tag + "model digest differs from pass 0");
      }
      rep.trials.push_back(
          {i, pass, c.seed, t.wall_s, t.events, ref_ns, t.digest.hex()});
      rep.shard_workers = std::max(rep.shard_workers, t.layers.shard.workers);
    }
  }
  const double ref_end = reference.measure();
  setups.block(w, o.seed, ref_end);
  setups.check(w, facts, checks);

  sim::Hasher128 h;
  for (const sim::Hash128& d : digests) add_digest(h, d);
  rep.digest = h.finalize().hex();

  // Each execution's host reference is the mean of the one taken before it
  // and the next one. A trial's figure is the median over its executions;
  // the run's, the median over trials.
  std::vector<std::vector<double>> scaled(n), raw(n);
  std::vector<double> refs;
  for (std::size_t j = 0; j < rep.trials.size(); ++j) {
    TrialRecord& r = rep.trials[j];
    const double next = j + 1 < rep.trials.size() ? rep.trials[j + 1].ref_ns
                                                  : ref_end;
    r.ref_ns = 0.5 * (r.ref_ns + next);
    refs.push_back(r.ref_ns);
    if (r.events == 0) continue;
    const double ns = 1e9 * r.wall_s / static_cast<double>(r.events);
    raw[static_cast<std::size_t>(r.trial)].push_back(ns);
    scaled[static_cast<std::size_t>(r.trial)].push_back(
        ns * HostReference::scale(r.ref_ns));
  }
  const auto median_of_medians = [](const std::vector<std::vector<double>>& v) {
    std::vector<double> m;
    for (const auto& x : v)
      if (!x.empty()) m.push_back(median(x));
    return median(m);
  };
  rep.setup_s = setups.scaled_setup_s();
  rep.metrics = {
      {"ns_per_event", median_of_medians(scaled), "ns"},
      {"setup_s", median(rep.setup_s), "s"},
      {"setup_heap_mb", median(setups.values(&SetupResult::heap_mb)), "MiB"}};
  rep.extra = {
      {"unscaled_ns_per_event", median_of_medians(raw), "ns"},
      {"unscaled_setup_s", median(setups.values(&SetupResult::setup_s)), "s"},
      {"reference_ns", median(refs), "ns"}};
  return rep;
}

RunReport run_traced(const Workload& w, const Options& o, Checks& checks) {
  RunReport rep;
  SpanLog log;
  SetupSamples setups;
  std::vector<SetupFacts> facts;

  // Each trial runs untraced, then (sharded workloads) at 1 shard x 1
  // worker and at up to 4 executor threads, then traced; all must agree on
  // the model. The work is fixed, not timed, so every count below repeats
  // exactly.
  const bool sharded = w.base.shards > 0;
  const int parallel_workers = std::min(4, hardware_threads());
  sim::Hasher128 prefix;
  LayerTotals traced, untraced;
  double wall_untraced = 0.0, wall_traced = 0.0, wall_1x1 = 0.0;
  double wall_parallel = 0.0;
  TrialResult first;
  for (int i = 0; i < w.trials; ++i) {
    {
      ScopedSpan span(log, "setup.block", -1);
      setups.block(w, o.seed);
    }
    const core::ScenarioConfig c = trial_config(w, o.seed, i);
    TrialResult u;
    {
      ScopedSpan span(log, "trial.untraced", i);
      u = run_trial(w, c);
    }
    const std::string tag = "trial " + std::to_string(i) + ": ";
    checks.check(u.ok, tag + u.fail_reason);
    facts.push_back(u.setup);
    add_digest(prefix, u.digest);
    wall_untraced += u.wall_s;
    untraced.add(u.layers);
    rep.shard_workers = std::max(rep.shard_workers, u.layers.shard.workers);
    if (sharded) {
      TrialResult one, par;
      {
        ScopedSpan span(log, "trial.shard_1x1", i);
        one = run_trial(w, c, 1, 1);
      }
      {
        ScopedSpan span(log, "trial.shard_parallel", i);
        par = run_trial(w, c, w.base.shards, parallel_workers);
      }
      checks.check(one.ok && one.canonical == u.canonical,
                   tag + "1 shard x 1 worker result differs from " +
                       std::to_string(w.base.shards) + " shards");
      checks.check(par.ok && par.canonical == u.canonical,
                   tag + std::to_string(parallel_workers) +
                       " executor threads give a different result from " +
                       std::to_string(w.base.shard_workers));
      wall_1x1 += one.wall_s;
      wall_parallel += par.wall_s;
    }
    const TrialResult tr = run_trial_traced(w, c, log, i);
    checks.check(tr.ok && tr.digest == u.digest,
                 tag + "traced digest differs from untraced " +
                     tr.fail_reason);
    wall_traced += tr.wall_s;
    traced.add(tr.layers);
    rep.trials.push_back(
        {i, 0, c.seed, u.wall_s, u.events, 0.0, u.digest.hex()});
    if (i == 0) first = std::move(u);
  }
  {
    ScopedSpan span(log, "setup.block", -1);
    setups.block(w, o.seed);
  }
  setups.check(w, facts, checks);
  rep.setup_s = setups.values(&SetupResult::setup_s);
  rep.digest = prefix.finalize().hex();

  double micro_ns = 0.0, loop_ns = 0.0;
  RoutingMicro routing;
  CampaignMicro camp;
  {
    ScopedSpan span(log, "sim.micro", -1);
    micro_ns = micro_ns_per_event(o.smoke ? 200'000 : 2'000'000);
  }
  {
    ScopedSpan span(log, "net.loop", -1);
    loop_ns = net_loop_ns_per_hop(
        w.base.system, o.seed,
        (o.smoke ? 50 : 200) * sim::kMicrosecond);
  }
  {
    ScopedSpan span(log, "routing.micro", -1);
    routing = routing_micro(w.base.system, o.seed, o.smoke ? 10'000 : 100'000);
  }
  checks.check(routing.bad_paths == 0,
               std::to_string(routing.bad_paths) +
                   " routed paths missed their destination or hop bound");
  {
    ScopedSpan span(log, "campaign.micro", -1);
    const std::string tmp =
        (o.out_dir.empty() ? std::string(".") : o.out_dir) +
        "/campaign-tmp-" + std::to_string(getpid());
    camp = campaign_micro(
        trial_config(w, o.seed, 0),
        w.kind == Kind::kProduction ? &first.run : nullptr,
        w.kind == Kind::kControlled ? &first.ensemble : nullptr, tmp);
  }
  checks.check(camp.ok, "campaign cache hit did not reproduce the result");

  const core::ShardExecStats& sh = untraced.shard;
  double busy = 0.0, wait = 0.0;
  for (const std::int64_t ns : sh.executor_busy_ns) busy += 1e-9 * static_cast<double>(ns);
  for (const std::int64_t ns : sh.executor_wait_ns) wait += 1e-9 * static_cast<double>(ns);
  const net::EventProfile& p = traced.profile;
  const auto kind_s = [&](int k) { return 1e-9 * static_cast<double>(p.wall_ns[k]); };
  const auto kind_n = [&](int k) { return static_cast<double>(p.count[k]); };
  const double profiled_s = 1e-9 * static_cast<double>(p.total_wall_ns());
  const net::FlitTimes& ft = traced.flit_times;
  const auto stall = [&](const net::ClassCounters& c, double flit_ns) {
    return net::CounterSnapshot::stall_flit_ratio(c, flit_ns);
  };
  const double decisions =
      static_cast<double>(traced.minimal + traced.nonminimal);
  const auto d = [](auto v) { return static_cast<double>(v); };
  rep.metrics = {
      {"sim.events", d(traced.events), "count"},
      {"sim.events_per_s", ratio(d(untraced.events), wall_untraced), "1/s"},
      {"sim.micro_ns_per_event", micro_ns, "ns"},
      {"mem.allocs_per_event", ratio(d(traced.allocs), d(traced.events)),
       "allocs/event"},
      {"mem.steady_allocs_per_event",
       ratio(d(traced.steady_allocs), d(traced.steady_events)), "allocs/event"},
      {"shard.windows", d(sh.windows), "count"},
      {"shard.merges", d(sh.merges), "count"},
      {"shard.windows_fused", d(sh.windows_fused), "count"},
      {"shard.mail_posted", d(sh.mail_posted), "count"},
      {"shard.mail_records", d(sh.mail_records), "count"},
      {"shard.mail_compacted", d(sh.mail_compacted), "count"},
      {"shard.coord_s", 1e-9 * d(sh.coord_ns), "s"},
      {"shard.barrier_wait_s", 1e-9 * d(sh.barrier_wait_ns), "s"},
      {"shard.busy_s", busy, "s"},
      {"shard.wait_s", wait, "s"},
      {"shard.imbalance", sh.shard_imbalance(), "ratio"},
      {"shard.speedup_vs_1x1", sharded ? ratio(wall_1x1, wall_parallel) : 0.0,
       "ratio"},
      {"net.packets", d(traced.packets), "count"},
      {"net.hops_per_packet", ratio(d(traced.hops), d(traced.packets)),
       "hops/packet"},
      {"net.escapes", d(traced.escapes), "count"},
      {"net.inject_s", kind_s(net::kEvInjection), "s"},
      {"net.hop_s", kind_s(net::kEvHop), "s"},
      {"net.eject_s", kind_s(net::kEvEjection), "s"},
      {"net.inject_events", kind_n(net::kEvInjection), "count"},
      {"net.hop_events", kind_n(net::kEvHop), "count"},
      {"net.eject_events", kind_n(net::kEvEjection), "count"},
      {"net.other_s", sharded ? 0.0 : wall_traced - profiled_s, "s"},
      {"net.loop_ns_per_hop", loop_ns, "ns"},
      {"routing.decisions", decisions, "count"},
      {"routing.nonminimal_frac", ratio(d(traced.nonminimal), decisions),
       "fraction"},
      {"routing.inject_ns", routing.inject_ns, "ns"},
      {"routing.next_port_ns", routing.next_port_ns, "ns"},
      {"router.stall_ratio_r1", stall(traced.counters.rank1, ft.rank1),
       "stall/flit"},
      {"router.stall_ratio_r2", stall(traced.counters.rank2, ft.rank2),
       "stall/flit"},
      {"router.stall_ratio_r3", stall(traced.counters.rank3, ft.rank3),
       "stall/flit"},
      {"mpi.calls", d(traced.mpi_calls), "count"},
      {"mpi.submit_s", log.total_s("mpi.submit"), "s"},
      {"sched.build_s", median(setups.values(&SetupResult::build_s)), "s"},
      {"sched.place_s", median(setups.values(&SetupResult::place_s)), "s"},
      {"topo.build_s", median(setups.values(&SetupResult::topo_s)), "s"},
      {"sched.jobs", d(traced.jobs), "count"},
      {"sched.backfilled", d(traced.backfilled), "count"},
      {"monitor.ldms_samples", d(traced.ldms_samples), "count"},
      {"core.collect_s", log.total_s("core.collect"), "s"},
      {"core.pre_measure_s", log.total_s("core.pre_measure"), "s"},
      {"core.measure_s", log.total_s("core.measure"), "s"},
      {"model.runtime_ms", traced.runtime_ms, "ms"},
      {"campaign.fingerprint_us", camp.fingerprint_us, "us"},
      {"campaign.serialize_us", camp.serialize_us, "us"},
      {"campaign.store_ms", camp.store_ms, "ms"},
      {"campaign.hit_ms", camp.hit_ms, "ms"},
      {"trace.overhead_frac", ratio(wall_traced, wall_untraced) - 1.0,
       "fraction"},
  };
  if (sharded && hardware_threads() < 4)
    rep.notes["shard.speedup_vs_1x1"] =
        "unmeasured: " + std::to_string(hardware_threads()) +
        " hardware threads, and the 4 executors need 4";
  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/" + w.name + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    checks.check(log.write_chrome_trace(path), "cannot write " + path);
  }
  return rep;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    s += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
         json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  return s + "}";
}

/// Full record of one run: result, per-trial data and host/build metadata.
void write_result(const Options& o, const Workload& w, const RunReport& rep,
                  const Checks& checks, bool correct) {
  const std::string stem = o.out_dir + "/" + w.name + "-seed" +
                           std::to_string(o.seed) +
                           (o.trace ? "-traced" : "-e2e");
  std::string path = stem + ".json";
  for (int n = 2; std::filesystem::exists(path); ++n)
    path = stem + "-" + std::to_string(n) + ".json";
  std::ofstream f(path);
  f << "{\n  \"workload\": " << json_string(w.name)
    << ",\n  \"seed\": " << o.seed
    << ",\n  \"mode\": " << json_string(o.trace ? "traced" : "e2e")
    << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
    << ",\n  \"seconds\": " << json_number(o.seconds)
    << ",\n  \"correct\": " << (correct ? "true" : "false")
    << ",\n  \"attempted\": " << checks.attempted
    << ",\n  \"failed\": " << checks.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    f << (i ? ", " : "") << json_string(checks.failures[i]);
  f << "],\n  \"digest\": " << json_string(rep.digest)
    << ",\n  \"metrics\": " << metrics_object(rep.metrics)
    << ",\n  \"extra_metrics\": " << metrics_object(rep.extra)
    << ",\n  \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : rep.notes) {
    f << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  f << "},\n  \"trials\": [";
  for (std::size_t i = 0; i < rep.trials.size(); ++i) {
    const TrialRecord& t = rep.trials[i];
    f << (i ? ",\n    " : "\n    ") << "{\"trial\": " << t.trial
      << ", \"pass\": " << t.pass << ", \"seed\": " << t.seed
      << ", \"wall_s\": " << json_number(t.wall_s)
      << ", \"events\": " << t.events
      << ", \"ref_ns\": " << json_number(t.ref_ns)
      << ", \"digest\": " << json_string(t.digest) << "}";
  }
  f << "],\n  \"setup_s\": [";
  for (std::size_t i = 0; i < rep.setup_s.size(); ++i)
    f << (i ? ", " : "") << json_number(rep.setup_s[i]);
  f << "],\n  \"host\": {\"cpu_model\": " << json_string(cpu_model())
    << ", \"nproc\": " << hardware_threads()
    << ", \"shard_workers\": " << rep.shard_workers
    << "},\n  \"build\": {\"compiler\": " << json_string(DFBENCH_COMPILER)
    << ", \"flags\": " << json_string(DFBENCH_FLAGS)
    << ", \"build_type\": " << json_string(DFBENCH_BUILD_TYPE)
    << ", \"binary\": "
    << json_string(heap_allocs_counted() ? "dfbench_traced" : "dfbench")
    << ", \"git_rev\": " << json_string(o.git_rev) << "}\n}\n";
}

int run(const Options& o) {
  if (o.trace && !heap_allocs_counted())
    usage_error("--trace 1 needs the dfbench_traced binary");
  const Workload w = make_workload(o.workload, o.smoke);
  if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);
  Checks checks;
  const RunReport rep =
      o.trace ? run_traced(w, o, checks) : run_e2e(w, o, checks);

  if (!o.smoke && !o.pins.empty()) {
    const std::string pin = pinned_digest(o.pins, w.name, o.seed);
    if (!pin.empty())
      checks.check(pin == rep.digest, "model digest " + rep.digest +
                                          " differs from the pinned " + pin);
  }
  const bool correct = checks.failed == 0;

  for (const auto* list : {&rep.metrics, &rep.extra})
    for (const Metric& m : *list) {
      if (rep.notes.count(m.name) != 0)
        std::printf("%s %s unmeasured %s\n", w.name.c_str(), m.name.c_str(),
                    m.unit.c_str());
      else
        std::printf("%s %s %s %s\n", w.name.c_str(), m.name.c_str(),
                    json_number(m.value).c_str(), m.unit.c_str());
    }
  std::printf("%s digest %s\n", w.name.c_str(), rep.digest.c_str());
  if (!o.out_dir.empty()) write_result(o, w, rep, checks, correct);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", checks.attempted, checks.failed,
              metrics_object(rep.metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dfbench

int main(int argc, char** argv) {
  try {
    const dfbench::Options o = dfbench::parse_options(argc, argv);
    return dfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfbench: %s\n", e.what());
    return 2;
  }
}
