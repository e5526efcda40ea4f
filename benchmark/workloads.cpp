// The four workloads, and the untraced, traced and set-up replica runs of
// their trials.
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "campaign/serialize.hpp"
#include "dfbench.hpp"
#include "monitor/ldms.hpp"
#include "sched/scheduler.hpp"
#include "sched/system.hpp"
#include "topo/topology.hpp"

namespace dfbench {
namespace {

/// Bench-grade packets (4 KB, 2048-flit buffers) as the figure benches use,
/// and an explicit fabric so DFSIM_TEST_TOPO cannot swap the topology.
topo::Config bench_system(topo::Config c) {
  c.kind = topo::TopologyKind::kDragonfly;
  c.packet_payload_bytes = 4096;
  c.buffer_flits = 2048;
  return c;
}

std::int64_t total_calls(const mpi::Profile& p) {
  std::int64_t n = 0;
  for (int op = 0; op < mpi::kNumOps; ++op)
    n += p.stats(static_cast<mpi::Op>(op)).calls;
  return n;
}

void add_counters(net::CounterSnapshot& into, const net::CounterSnapshot& c) {
  const auto add = [](net::ClassCounters& a, const net::ClassCounters& b) {
    a.flits += b.flits;
    a.stall_ns += b.stall_ns;
  };
  add(into.rank1, c.rank1);
  add(into.rank2, c.rank2);
  add(into.rank3, c.rank3);
  add(into.proc_req, c.proc_req);
  add(into.proc_rsp, c.proc_rsp);
}

void absorb_net(LayerTotals& l, const net::NetworkStats& s,
                const net::CounterSnapshot& counters,
                const net::FlitTimes& ft) {
  l.packets += s.packets_delivered;
  l.hops += s.total_hops;
  l.escapes += s.escapes;
  l.minimal += s.minimal_decisions;
  l.nonminimal += s.nonminimal_decisions;
  add_counters(l.counters, counters);
  l.flit_times = ft;
}

void fail(TrialResult& t, const std::string& why) {
  if (t.ok) t.fail_reason = why;
  t.ok = false;
}

/// Failure rules shared by every trial: the entry point's own verdict, an
/// exhausted event budget, or an escape-timeout firing.
void check_result(TrialResult& t, bool ok, const std::string& reason,
                  bool budget_exhausted, std::int64_t escapes) {
  if (!ok) fail(t, reason.empty() ? "run failed" : reason);
  if (budget_exhausted) fail(t, "event budget exhausted");
  if (escapes != 0) fail(t, std::to_string(escapes) + " escape-timeout firings");
}

void absorb_run(TrialResult& t, core::RunResult r) {
  check_result(t, r.ok, r.fail_reason, r.budget_exhausted, r.netstats.escapes);
  t.events = r.events_executed;
  t.canonical = campaign::serialize(r, campaign::Canonical::kYes);
  t.digest = campaign::result_digest(r);
  t.setup.fill = r.background;
  t.setup.groups_spanned = r.groups_spanned;
  LayerTotals& l = t.layers;
  l.events += r.events_executed;
  absorb_net(l, r.netstats, r.global, r.flit_times);
  l.mpi_calls += total_calls(r.autoperf.profile);
  l.jobs += r.background.jobs + 1;
  l.runtime_ms += r.runtime_ms;
  if (r.shard_exec.shards > 0) {
    l.shard = r.shard_exec;
    l.shard_runs = 1;
  }
  t.run = std::move(r);
}

void absorb_ensemble(TrialResult& t, core::EnsembleResult r) {
  check_result(t, r.ok, r.fail_reason, r.budget_exhausted, r.netstats.escapes);
  t.events = r.events_executed;
  t.digest = campaign::result_digest(r);
  LayerTotals& l = t.layers;
  l.events += r.events_executed;
  absorb_net(l, r.netstats, r.total, r.flit_times);
  l.jobs += static_cast<int>(r.runtimes_ms.size());
  l.ldms_samples += static_cast<int>(r.ldms.size());
  for (const double ms : r.runtimes_ms) l.runtime_ms += ms;
  t.setup.jobs = static_cast<int>(r.runtimes_ms.size());
  t.ensemble = std::move(r);
}

/// Canonical digest of a system-mode result: every SystemStats field and
/// every job record, plus the event count.
sim::Hash128 system_digest(const core::SystemRunResult& r) {
  sim::Hasher128 h;
  h.update_u64(r.ok ? 1 : 0);
  h.update_u64(r.events_executed);
  h.update_u64(r.budget_exhausted ? 1 : 0);
  const sched::SystemStats& s = r.stats;
  h.update_i64(s.total);
  h.update_i64(s.completed);
  h.update_i64(s.backfilled);
  h.update_i64(s.makespan);
  h.update_f64(s.mean_wait_us);
  h.update_f64(s.max_wait_us);
  h.update_f64(s.peak_utilization);
  for (const sched::SystemJobRecord& j : r.jobs) {
    h.update_i64(j.index);
    h.update_i64(j.spec.arrival);
    h.update_i64(j.spec.nnodes);
    h.update_u64(static_cast<std::uint64_t>(j.spec.placement));
    h.update_u64(static_cast<std::uint64_t>(j.spec.mode));
    h.update_field(j.spec.app);
    h.update_field(j.spec.pattern);
    h.update_i64(j.job);
    h.update_i64(j.start_time);
    h.update_i64(j.end_time);
    h.update_u64(j.backfilled ? 1 : 0);
  }
  return h.finalize();
}

void absorb_system(TrialResult& t, const core::SystemRunResult& r) {
  check_result(t, r.ok, r.fail_reason, r.budget_exhausted, 0);
  t.events = r.events_executed;
  t.digest = system_digest(r);
  t.setup.jobs = static_cast<int>(r.jobs.size());
  LayerTotals& l = t.layers;
  l.events += r.events_executed;
  l.jobs += r.stats.total;
  l.backfilled += r.stats.backfilled;
  l.runtime_ms += sim::to_ms(r.stats.makespan);
}

void add_profile(net::EventProfile& into, const net::EventProfile& p) {
  for (int k = 0; k < net::kNumEventKinds; ++k) {
    into.count[k] += p.count[k];
    into.wall_ns[k] += p.wall_ns[k];
  }
}

std::int64_t machine_mpi_calls(const mpi::Machine& m) {
  std::int64_t n = 0;
  for (std::size_t id = 0; id < m.num_jobs(); ++id)
    n += total_calls(m.job_profile(static_cast<mpi::JobId>(id)));
  return n;
}

/// Controlled trial through the calls run_controlled makes, with an event
/// profile attached and spans at each phase.
core::EnsembleResult traced_controlled(const core::ScenarioConfig& cfg,
                                       SpanLog& log, int trial,
                                       LayerTotals& l) {
  core::EnsembleResult res;
  net::EventProfile prof;
  int span = log.open("core.pre_measure", trial);
  sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
  auto& machine = sched.machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().apply_fault_plan(cfg.faults);
  machine.network().set_event_profile(&prof);
  log.close(span);

  span = log.open("mpi.submit", trial);
  std::vector<mpi::JobId> ids;
  for (int j = 0; j < cfg.njobs; ++j) {
    const mpi::JobId id = sched.submit_app(cfg.app, cfg.nnodes, cfg.placement,
                                           cfg.mode, cfg.params,
                                           cfg.target_groups);
    if (id < 0) break;
    ids.push_back(id);
  }
  if (ids.empty()) {
    log.close(span);
    res.fail_reason = "allocation failed";
    return res;
  }
  monitor::LdmsSampler ldms(machine.network(), cfg.ldms_period);
  ldms.start();
  log.close(span);

  span = log.open("core.measure", trial);
  const std::uint64_t a0 = heap_allocs();
  const std::uint64_t e0 = machine.events_executed();
  const bool completed = machine.run_to_completion(ids);
  l.steady_allocs += heap_allocs() - a0;
  l.steady_events += machine.events_executed() - e0;
  log.close(span);

  span = log.open("core.collect", trial);
  res.events_executed = machine.events_executed();
  res.budget_exhausted = machine.budget_exhausted();
  res.faults = machine.network().fault_stats();
  if (completed) {
    res.ok = true;
    for (const mpi::JobId id : ids)
      res.runtimes_ms.push_back(sim::to_ms(machine.job(id).runtime()));
    res.total = machine.network().snapshot_all();
    res.ldms = ldms.samples();
    res.tiles = monitor::per_tile_counters(machine.network());
    res.netstats = machine.network().stats();
    res.flit_times = machine.network().flit_times();
  } else {
    res.fail_reason = "run stopped before ensemble completion";
  }
  l.mpi_calls += machine_mpi_calls(machine);
  log.close(span);
  add_profile(l.profile, prof);
  return res;
}

/// The stream settings run_system derives from a scenario.
sched::SystemConfig system_config(const core::ScenarioConfig& cfg) {
  sched::SystemConfig sc;
  sc.num_jobs = cfg.sys_jobs;
  sc.mean_interarrival = cfg.sys_interarrival;
  sc.backfill = cfg.sys_backfill;
  sc.ad3_fraction = cfg.sys_ad3_fraction;
  return sc;
}

/// System-mode trial through the calls run_system makes.
core::SystemRunResult traced_system(const core::ScenarioConfig& cfg,
                                    SpanLog& log, int trial, LayerTotals& l) {
  core::SystemRunResult res;
  net::EventProfile prof;
  int span = log.open("core.pre_measure", trial);
  sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
  auto& machine = sched.machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().set_event_coalescing(cfg.coalesce_events);
  machine.network().apply_fault_plan(cfg.faults);
  machine.network().set_event_profile(&prof);
  log.close(span);

  span = log.open("mpi.submit", trial);
  sched::SystemScheduler system(sched, system_config(cfg), cfg.seed);
  log.close(span);

  span = log.open("core.measure", trial);
  const std::uint64_t a0 = heap_allocs();
  const std::uint64_t e0 = machine.events_executed();
  const bool completed = system.run();
  l.steady_allocs += heap_allocs() - a0;
  l.steady_events += machine.events_executed() - e0;
  log.close(span);

  span = log.open("core.collect", trial);
  res.events_executed = machine.events_executed();
  res.budget_exhausted = machine.budget_exhausted();
  res.faults = machine.network().fault_stats();
  res.stats = system.stats();
  res.jobs = system.records();
  res.ok = completed;
  if (!completed) res.fail_reason = "stream stalled";
  absorb_net(l, machine.network().stats(), machine.network().snapshot_all(),
             machine.network().flit_times());
  l.mpi_calls += machine_mpi_calls(machine);
  log.close(span);
  add_profile(l.profile, prof);
  return res;
}

}  // namespace

void LayerTotals::add(const LayerTotals& o) {
  events += o.events;
  packets += o.packets;
  hops += o.hops;
  escapes += o.escapes;
  minimal += o.minimal;
  nonminimal += o.nonminimal;
  add_counters(counters, o.counters);
  flit_times = o.flit_times;
  add_profile(profile, o.profile);
  mpi_calls += o.mpi_calls;
  jobs += o.jobs;
  backfilled += o.backfilled;
  ldms_samples += o.ldms_samples;
  runtime_ms += o.runtime_ms;
  allocs += o.allocs;
  steady_allocs += o.steady_allocs;
  steady_events += o.steady_events;
  if (o.shard_runs > 0) {
    core::ShardExecStats& s = shard;
    const core::ShardExecStats& t = o.shard;
    s.shards = t.shards;
    s.workers = t.workers;
    s.windows += t.windows;
    s.merges += t.merges;
    s.windows_fused += t.windows_fused;
    s.mail_posted += t.mail_posted;
    s.mail_records += t.mail_records;
    s.mail_compacted += t.mail_compacted;
    s.barrier_wait_ns += t.barrier_wait_ns;
    s.coord_ns += t.coord_ns;
    s.shard_events.resize(t.shard_events.size(), 0);
    for (std::size_t i = 0; i < t.shard_events.size(); ++i)
      s.shard_events[i] += t.shard_events[i];
    s.executor_busy_ns.resize(t.executor_busy_ns.size(), 0);
    for (std::size_t i = 0; i < t.executor_busy_ns.size(); ++i)
      s.executor_busy_ns[i] += t.executor_busy_ns[i];
    s.executor_wait_ns.resize(t.executor_wait_ns.size(), 0);
    for (std::size_t i = 0; i < t.executor_wait_ns.size(); ++i)
      s.executor_wait_ns[i] += t.executor_wait_ns[i];
    shard_runs += o.shard_runs;
  }
}

// Host time per event grows with how much traffic a trial has in flight,
// and in the production and system workloads the seed draws that (the
// background mix, the job stream). The trial counts below are what keeps a
// run's median over trials within a few percent from seed to seed (README,
// "Seeds and trials"); hacc_ctl_bisection does nearly the same work at
// every seed and needs only two seeds of its AD0/AD3 pair.
Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  core::ScenarioConfig& c = w.base;
  if (name == "theta_milc_prod" || name == "cori_milc_prod_sharded") {
    const bool cori = name == "cori_milc_prod_sharded";
    w.kind = Kind::kProduction;
    c = core::ScenarioConfig::production();
    c.system = bench_system(cori ? topo::Config::cori_scaled()
                                 : topo::Config::theta_scaled());
    c.app = "MILC";
    c.nnodes = smoke ? 64 : 256;
    c.mode = routing::Mode::kAd3;
    c.params.iterations = 1;
    c.params.msg_scale = 0.15;
    c.params.compute_scale = 0.15;
    // Cori runs 30% utilisation with its background on AD3. With AD0
    // background the sharded engine fires escape timeouts on cori_scaled
    // (1 trial in 60 at 70%, about 1 in 1500 at 30%), and raising the
    // timeout to 20 ms does not stop them, so senders are stuck rather than
    // slow (README, Known issues).
    c.bg_utilization = smoke || cori ? 0.3 : 0.7;
    c.bg_mode = cori ? routing::Mode::kAd3 : routing::Mode::kAd0;
    // One executor thread: every window barrier waits for the slowest
    // executor, so with more, any stall of a shared host's vCPUs stalls the
    // run (README, "Host-speed adjustment"). The traced run times the
    // multi-threaded path.
    c.shards = cori ? (smoke ? 2 : 4) : 0;
    c.shard_workers = cori ? 1 : 0;
    w.trials = smoke ? 1 : (cori ? 24 : 12);
  } else if (name == "hacc_ctl_bisection") {
    w.kind = Kind::kControlled;
    c = core::ScenarioConfig::controlled();
    c.system = bench_system(topo::Config::theta_scaled());
    c.app = "HACC";
    c.nnodes = smoke ? 128 : 256;
    c.njobs = smoke ? 2 : 4;
    c.params.iterations = 1;
    c.params.msg_scale = smoke ? 0.2 : 0.3;
    c.params.compute_scale = 0.15;
    c.shards = 0;
    w.modes = {routing::Mode::kAd0, routing::Mode::kAd3};
    w.trials = smoke ? 2 : 4;
  } else if (name == "system_stream") {
    w.kind = Kind::kSystem;
    c = core::ScenarioConfig::system_mode();
    // An eighth of Theta (576 nodes): job sizes scale with the machine, so
    // streams are cheap enough for 24 of them per pass.
    c.system = bench_system(topo::Config::theta_scaled(8));
    c.sys_jobs = smoke ? 6 : 8;
    c.shards = 0;
    w.trials = smoke ? 1 : 24;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

core::ScenarioConfig trial_config(const Workload& w, std::uint64_t seed,
                                  int i) {
  core::ScenarioConfig c = w.base;
  const int pairs = w.modes.empty() ? 1 : static_cast<int>(w.modes.size());
  c.seed = core::derive_trial_seeds(seed, i / pairs + 1).back();
  if (!w.modes.empty()) c.mode = w.modes[static_cast<std::size_t>(i % pairs)];
  return c;
}

TrialResult run_trial(const Workload& w, core::ScenarioConfig c, int shards,
                      int workers) {
  TrialResult t;
  if (shards >= 0) {
    c.shards = shards;
    c.shard_workers = workers;
  }
  switch (w.kind) {
    case Kind::kProduction: {
      core::RunResult r;
      t.wall_s = timed([&] { r = core::run_production(c); });
      absorb_run(t, std::move(r));
      break;
    }
    case Kind::kControlled: {
      core::EnsembleResult r;
      t.wall_s = timed([&] { r = core::run_controlled(c); });
      absorb_ensemble(t, std::move(r));
      break;
    }
    case Kind::kSystem: {
      core::SystemRunResult r;
      t.wall_s = timed([&] { r = core::run_system(c); });
      absorb_system(t, r);
      break;
    }
  }
  return t;
}

TrialResult run_trial_traced(const Workload& w, core::ScenarioConfig c,
                             SpanLog& log, int trial) {
  TrialResult t;
  const std::uint64_t a0 = heap_allocs();
  const auto t0 = Clock::now();
  const int root = log.open("trial", trial);
  switch (w.kind) {
    case Kind::kProduction: {
      // Spans come from the hooks run_production exposes; the completion
      // driver calls exactly what the default measurement phase calls.
      net::EventProfile prof;
      if (c.shards == 0) c.event_profile = &prof;
      int span = log.open("core.pre_measure", trial);
      c.on_measurement_start = [&](const sim::Engine&) {
        log.close(span);
        span = log.open("mpi.submit", trial);
      };
      c.completion_driver = [&](mpi::Machine& m,
                                std::span<const mpi::JobId> watch) {
        log.close(span);
        span = log.open("core.measure", trial);
        const std::uint64_t sa = heap_allocs();
        const std::uint64_t se = m.events_executed();
        const bool done = m.run_to_completion(watch);
        t.layers.steady_allocs += heap_allocs() - sa;
        t.layers.steady_events += m.events_executed() - se;
        log.close(span);
        span = log.open("core.collect", trial);
        return done;
      };
      core::RunResult r = core::run_production(c);
      log.close(span);
      absorb_run(t, std::move(r));
      add_profile(t.layers.profile, prof);
      break;
    }
    case Kind::kControlled:
      absorb_ensemble(t, traced_controlled(c.resolve(), log, trial, t.layers));
      break;
    case Kind::kSystem:
      absorb_system(t, traced_system(c.resolve(), log, trial, t.layers));
      break;
  }
  log.close(root);
  t.wall_s = seconds_since(t0);
  t.layers.allocs = heap_allocs() - a0;
  return t;
}

SetupResult run_setup(const Workload& w, const core::ScenarioConfig& trial) {
  const core::ScenarioConfig cfg = trial.resolve();
  SetupResult s;
  std::unique_ptr<topo::Topology> fabric;
  s.topo_s = timed([&] { fabric = topo::make_topology(cfg.system); });
  fabric.reset();
  const double heap0 = heap_in_use_mib();
  const auto t0 = Clock::now();
  sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
  s.build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  mpi::Machine& machine = sched.machine();
  std::optional<sched::SystemScheduler> system;  // alive until measured
  switch (w.kind) {
    case Kind::kProduction: {
      auto nodes = sched.allocator().allocate(cfg.nnodes, cfg.placement,
                                              sched.rng(), cfg.target_groups);
      if (nodes.empty()) break;
      s.facts.groups_spanned = machine.topology().groups_spanned(nodes);
      sched::BackgroundSet bg;
      if (cfg.bg_utilization > 0.0)
        bg = sched.add_background(cfg.bg_utilization, cfg.bg_mode,
                                  cfg.bg_placement);
      core::BackgroundFill& f = s.facts.fill;
      f.jobs = static_cast<int>(bg.jobs.size());
      f.total_nodes = bg.total_nodes;
      f.target_utilization = bg.target_utilization;
      f.achieved_utilization = bg.achieved_utilization;
      f.allocation_attempts = bg.allocation_attempts;
      f.allocation_failures = bg.allocation_failures;
      if (cfg.shard_balance && machine.sharded_engine() != nullptr) {
        const auto& topo = machine.topology();
        std::vector<std::uint64_t> weight(
            static_cast<std::size_t>(topo.groups()), 0);
        for (topo::NodeId n = 0; n < topo.num_nodes(); ++n)
          if (sched.allocator().is_busy(n))
            ++weight[static_cast<std::size_t>(topo.group_of_node(n))];
        machine.rebalance_shards(weight);
      }
      break;
    }
    case Kind::kControlled:
      for (int j = 0; j < cfg.njobs; ++j) {
        if (sched.submit_app(cfg.app, cfg.nnodes, cfg.placement, cfg.mode,
                             cfg.params, cfg.target_groups) < 0)
          break;
        ++s.facts.jobs;
      }
      break;
    case Kind::kSystem:
      system.emplace(sched, system_config(cfg), cfg.seed);
      s.facts.jobs = static_cast<int>(system->records().size());
      break;
  }
  s.place_s = seconds_since(t1);
  s.setup_s = seconds_since(t0);
  s.heap_mb = heap_in_use_mib() - heap0;
  return s;
}

std::string setup_mismatch(const Workload& w, const SetupFacts& replica,
                           const SetupFacts& trial) {
  if (w.kind != Kind::kProduction)
    return replica.jobs == trial.jobs
               ? std::string()
               : "set-up replica submitted " + std::to_string(replica.jobs) +
                     " jobs, trial ran " + std::to_string(trial.jobs);
  const core::BackgroundFill& a = replica.fill;
  const core::BackgroundFill& b = trial.fill;
  if (replica.groups_spanned != trial.groups_spanned || a.jobs != b.jobs ||
      a.total_nodes != b.total_nodes ||
      a.target_utilization != b.target_utilization ||
      a.achieved_utilization != b.achieved_utilization ||
      a.allocation_attempts != b.allocation_attempts ||
      a.allocation_failures != b.allocation_failures)
    return "set-up replica's background fill or placement differs from the "
           "trial's";
  return {};
}

}  // namespace dfbench
