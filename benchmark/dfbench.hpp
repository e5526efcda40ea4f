// dfbench: shared declarations of the benchmark's translation units.
//
// A workload is a fixed list of trials derived from one seed. A trial is one
// call of a public entry point (core::run_production, core::run_controlled,
// core::run_system); every time the benchmark reports
// is host time spent inside those calls, and every simulated quantity it
// reports is a count or digest a host-only change must leave identical.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "sim/hash.hpp"

namespace dfbench {

using namespace dfsim;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

// --- heap accounting (spans.cpp; the counters need alloc_counter.cpp,
// which only the traced binary links) ---

/// True when the counting operator new is linked in.
bool heap_allocs_counted();
/// operator new calls so far (0 when not counted).
std::uint64_t heap_allocs();
/// Bytes the C heap has in use (glibc mallinfo2, every arena plus mmapped
/// chunks), in MiB. Works in both binaries.
double heap_in_use_mib();

// --- spans (spans.cpp) ---

/// In-memory span recorder. Spans nest by call order; each carries the
/// trial it belongs to (-1 outside trials). Written out once, at the end,
/// as Chrome trace-event JSON (which Perfetto opens).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int id = 0;
    int parent = -1;
    int trial = -1;
  };

  int open(std::string_view name, int trial);
  void close(int id);

  /// Summed duration of every closed span called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  /// Duration minus the time covered by direct children, in nanoseconds.
  [[nodiscard]] std::int64_t self_ns(const Span& s) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// A span covering the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, int trial)
      : log_(log), id_(log.open(name, trial)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- workloads (workloads.cpp) ---

enum class Kind { kProduction, kControlled, kSystem };

struct Workload {
  std::string name;
  Kind kind = Kind::kProduction;
  /// Scenario of every trial; the trial seed replaces `seed`.
  core::ScenarioConfig base;
  /// When set, trials come in pairs at one seed (as in fig09): trial i runs
  /// modes[i % modes.size()] at the seed of pair i / modes.size().
  std::vector<routing::Mode> modes;
  /// Number of trials. Every run executes each of them at least once, and
  /// the digest and the traced run cover all of them.
  int trials = 1;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, bool smoke);
/// Scenario of trial `i` of the list `seed` fixes. Its seed is the one
/// core::run_production_ensemble would give trial i (pair i, when paired).
[[nodiscard]] core::ScenarioConfig trial_config(const Workload& w,
                                                std::uint64_t seed, int i);

/// Simulated and host-side observations of one trial (per-layer metrics
/// are sums over the trials).
struct LayerTotals {
  std::uint64_t events = 0;
  std::int64_t packets = 0;
  std::int64_t hops = 0;
  std::int64_t escapes = 0;
  std::int64_t minimal = 0;
  std::int64_t nonminimal = 0;
  net::CounterSnapshot counters;
  net::FlitTimes flit_times;
  net::EventProfile profile;
  std::int64_t mpi_calls = 0;
  int jobs = 0;
  int backfilled = 0;
  int ldms_samples = 0;
  double runtime_ms = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
  core::ShardExecStats shard;
  int shard_runs = 0;

  void add(const LayerTotals& o);
};

/// What a trial set up before its first event, which a set-up replica of
/// it must reproduce: the background fill and foreground placement
/// (production) or the number of jobs submitted (controlled, system).
struct SetupFacts {
  core::BackgroundFill fill;
  int groups_spanned = 0;
  int jobs = 0;
};

/// Outcome of one trial.
struct TrialResult {
  bool ok = true;
  std::string fail_reason;
  double wall_s = 0.0;  ///< host time inside the entry-point calls
  std::uint64_t events = 0;
  sim::Hash128 digest;  ///< canonical model digest
  std::vector<std::uint8_t> canonical;  ///< production only: canonical bytes
  LayerTotals layers;
  SetupFacts setup;
  core::RunResult run;            ///< production result, for campaign
  core::EnsembleResult ensemble;  ///< controlled result, for campaign
};

/// Untraced trial through the public entry points. `shards`/`workers`
/// override the scenario's substrate when >= 0 (the traced run's
/// comparison runs).
TrialResult run_trial(const Workload& w, core::ScenarioConfig trial,
                      int shards = -1, int workers = -1);
/// Traced trial: production runs through run_production's hooks,
/// controlled and system runs drive the same public calls with an event
/// profile attached. Spans go to `log` under trial `index`.
TrialResult run_trial_traced(const Workload& w, core::ScenarioConfig trial,
                             SpanLog& log, int index);

/// What one set-up replica observed, to compare with the trial it mirrors.
struct SetupResult {
  double setup_s = 0.0;
  double build_s = 0.0;  ///< Scheduler constructor
  double place_s = 0.0;  ///< allocation / submission / stream generation
  double topo_s = 0.0;   ///< topo::make_topology alone (not in setup_s)
  double heap_mb = 0.0;  ///< heap growth from before the ctor to the end
  SetupFacts facts;
};
/// Replays the set-up calls the entry point makes before its first event.
SetupResult run_setup(const Workload& w, const core::ScenarioConfig& trial);
/// Empty when the replica matches the trial, else what differs.
std::string setup_mismatch(const Workload& w, const SetupFacts& replica,
                           const SetupFacts& trial);

// --- isolated layer measurements (layers.cpp) ---

/// Self-rescheduling sim::Engine event chain: host ns per event.
double micro_ns_per_event(std::uint64_t events);
/// Closed loop of Network::send_message (no MPI) on `system`: host ns per
/// packet hop over two simulated `window`s after a one-window warm-up.
double net_loop_ns_per_hop(const topo::Config& system, std::uint64_t seed,
                           sim::Tick window);

struct RoutingMicro {
  double inject_ns = 0.0;
  double next_port_ns = 0.0;
  int bad_paths = 0;  ///< walks that did not reach their destination
};
/// RoutePlanner over `pairs` seeded (src, dst) pairs with a fixed load table.
RoutingMicro routing_micro(const topo::Config& system, std::uint64_t seed,
                           int pairs);

struct CampaignMicro {
  double fingerprint_us = 0.0;
  double serialize_us = 0.0;
  double store_ms = 0.0;
  double hit_ms = 0.0;
  bool ok = true;  ///< every cache hit reproduced the stored digest
};
/// Campaign-layer costs on one scenario and its result, using a temporary
/// cache directory under `tmp_dir` (removed afterwards). `run`/`ensemble`
/// may be null: then only the fingerprint is measured.
CampaignMicro campaign_micro(const core::ScenarioConfig& cfg,
                             const core::RunResult* run,
                             const core::EnsembleResult* ensemble,
                             const std::string& tmp_dir);

}  // namespace dfbench
