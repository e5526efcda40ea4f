// Isolated measurements of single layers: the event engine, the forwarding
// plane without MPI, the route planner, and the campaign cache.
#include <filesystem>
#include <memory>
#include <system_error>

#include "campaign/cache.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/serialize.hpp"
#include "dfbench.hpp"
#include "routing/adaptive.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace dfbench {
namespace {

// Each chain event reschedules itself with the capture shape of the
// forwarding plane's hop closure (one pointer and five 32-bit ids).
struct Chain {
  sim::Engine eng;
  std::uint64_t remaining = 0;
};

void chain_hop(Chain& c, std::int32_t r, std::int32_t p, std::int32_t vc,
               std::int32_t flits, std::int32_t pid) {
  if (c.remaining == 0) return;
  --c.remaining;
  c.eng.schedule(1, [&c, r, p, vc, flits, pid] {
    chain_hop(c, r, p, vc, flits, pid);
  });
}

/// Closed loop: every flow keeps one message in flight, re-sent from its
/// own delivery callback.
struct Loop {
  net::Network& net;
  std::vector<topo::NodeId> src, dst;

  void kick(int i) {
    net.send_message(src[static_cast<std::size_t>(i)],
                     dst[static_cast<std::size_t>(i)], 64 * 1024,
                     routing::Mode::kAd0, [this, i] { kick(i); });
  }
};

/// Benchmark-owned load oracle: a fixed pseudo-random load per port, up to
/// twice the scale, so decisions split between minimal and Valiant routes.
class TableLoad final : public routing::LoadOracle {
 public:
  TableLoad(const topo::Topology& t, std::uint64_t seed) {
    sim::Rng rng(seed ^ 0x10ADULL);
    base_.reserve(static_cast<std::size_t>(t.num_routers()));
    for (topo::RouterId r = 0; r < t.num_routers(); ++r) {
      base_.push_back(load_.size());
      for (int p = 0; p < t.num_ports(r); ++p)
        load_.push_back(static_cast<std::int64_t>(
            rng.uniform_u64(2 * routing::kLoadScale)));
    }
  }
  [[nodiscard]] std::int64_t load_units(topo::RouterId r,
                                        topo::PortId p) const override {
    return load_[base_[static_cast<std::size_t>(r)] +
                 static_cast<std::size_t>(p)];
  }

 private:
  std::vector<std::size_t> base_;
  std::vector<std::int64_t> load_;
};

}  // namespace

double micro_ns_per_event(std::uint64_t events) {
  constexpr int kChains = 64;  // about the number of simultaneously busy ports
  Chain c;
  c.remaining = events / 8;  // warm-up lap fills the event pool
  for (int i = 0; i < kChains; ++i) chain_hop(c, i, i + 1, i % 6, 9, 1000 + i);
  c.eng.run();
  c.remaining = events;
  const std::uint64_t e0 = c.eng.events_executed();
  const double s = timed([&] {
    for (int i = 0; i < kChains; ++i)
      chain_hop(c, i, i + 1, i % 6, 9, 1000 + i);
    c.eng.run();
  });
  return 1e9 * s / static_cast<double>(c.eng.events_executed() - e0);
}

double net_loop_ns_per_hop(const topo::Config& system, std::uint64_t seed,
                           sim::Tick window) {
  constexpr int kFlows = 512;
  const std::unique_ptr<topo::Topology> fabric = topo::make_topology(system);
  sim::Engine eng;
  net::Network net(eng, *fabric, seed);
  Loop loop{net, {}, {}};
  sim::Rng rng(seed ^ 0x5757575757575757ULL);
  const auto nodes = static_cast<std::uint64_t>(fabric->num_nodes());
  for (int i = 0; i < kFlows; ++i) {
    const auto s = static_cast<topo::NodeId>(rng.uniform_u64(nodes));
    auto d = static_cast<topo::NodeId>(rng.uniform_u64(nodes));
    if (d == s) d = static_cast<topo::NodeId>((d + 1) % fabric->num_nodes());
    loop.src.push_back(s);
    loop.dst.push_back(d);
  }
  for (int i = 0; i < kFlows; ++i) loop.kick(i);
  eng.run_until(window);  // warm-up: pools reach their high water
  const std::int64_t h0 = net.stats().total_hops;
  const double s = timed([&] { eng.run_until(3 * window); });
  return 1e9 * s / static_cast<double>(net.stats().total_hops - h0);
}

RoutingMicro routing_micro(const topo::Config& system, std::uint64_t seed,
                           int pairs) {
  const std::unique_ptr<topo::Topology> fabric = topo::make_topology(system);
  const topo::Topology& t = *fabric;
  const TableLoad loads(t, seed);
  struct Pair {
    topo::NodeId src, dst;
    routing::Mode mode;
  };
  std::vector<Pair> work;
  sim::Rng rng(seed ^ 0x9A125ULL);
  const auto nodes = static_cast<std::uint64_t>(t.num_nodes());
  for (int i = 0; i < pairs; ++i)
    work.push_back({static_cast<topo::NodeId>(rng.uniform_u64(nodes)),
                    static_cast<topo::NodeId>(rng.uniform_u64(nodes)),
                    i % 2 == 0 ? routing::Mode::kAd0 : routing::Mode::kAd3});

  // Two planners with one seed make identical injection decisions, so the
  // walk's cost is the second pass minus the first.
  RoutingMicro out;
  routing::RoutePlanner inject_only(t, loads, sim::Rng(seed));
  const double inject_s = timed([&] {
    for (const Pair& p : work) {
      routing::RouteState st;
      st.mode = p.mode;
      inject_only.decide_injection(t.router_of_node(p.src), p.dst, st);
    }
  });
  constexpr int kMaxHops = 16;  // the routing tests' loop bound
  routing::RoutePlanner planner(t, loads, sim::Rng(seed));
  std::uint64_t calls = 0;
  const double walk_s = timed([&] {
    for (const Pair& p : work) {
      routing::RouteState st;
      st.mode = p.mode;
      topo::RouterId r = t.router_of_node(p.src);
      planner.decide_injection(r, p.dst, st);
      bool arrived = false;
      for (int hop = 0; hop <= kMaxHops; ++hop) {
        const topo::PortId port = planner.next_port(r, p.dst, st);
        ++calls;
        const topo::PortInfo& pi = t.port(r, port);
        if (pi.cls == topo::TileClass::kProc) {
          arrived = pi.eject_node == p.dst;
          break;
        }
        if (pi.cls == topo::TileClass::kRank3 &&
            st.level + 1 < routing::kVcLadderLevels)
          ++st.level;  // the network bumps the ladder on group crossings
        r = pi.peer_router;
      }
      if (!arrived) ++out.bad_paths;
    }
  });
  out.inject_ns = 1e9 * inject_s / static_cast<double>(pairs);
  out.next_port_ns = 1e9 * (walk_s - inject_s) / static_cast<double>(calls);
  return out;
}

CampaignMicro campaign_micro(const core::ScenarioConfig& cfg,
                             const core::RunResult* run,
                             const core::EnsembleResult* ensemble,
                             const std::string& tmp_dir) {
  CampaignMicro out;
  constexpr int kFingerprints = 2000;
  out.fingerprint_us = 1e6 *
                       timed([&] {
                         for (int i = 0; i < kFingerprints; ++i)
                           (void)campaign::scenario_fingerprint(cfg);
                       }) /
                       kFingerprints;
  if (run == nullptr && ensemble == nullptr) return out;

  const auto bytes = [&] {
    return run != nullptr ? campaign::serialize(*run)
                          : campaign::serialize(*ensemble);
  };
  constexpr int kSerialize = 200;
  out.serialize_us = 1e6 *
                     timed([&] {
                       for (int i = 0; i < kSerialize; ++i) (void)bytes();
                     }) /
                     kSerialize;

  // Distinct entries (one per seed variant) in a fresh directory; every hit
  // goes through a new cache so it reads the disk, not the memory LRU.
  constexpr int kEntries = 20;
  campaign::ResultCache::Options opt;
  opt.dir = tmp_dir;
  const std::vector<std::uint8_t> payload = bytes();
  std::vector<campaign::Fingerprint> fps;
  for (int i = 0; i < kEntries; ++i) {
    core::ScenarioConfig c = cfg;
    c.seed = cfg.seed + static_cast<std::uint64_t>(i);
    fps.push_back(campaign::scenario_fingerprint(c));
  }
  {
    campaign::ResultCache cache(opt);
    out.store_ms = 1e3 *
                   timed([&] {
                     for (const auto& fp : fps) cache.store(fp, payload);
                   }) /
                   kEntries;
  }
  const sim::Hash128 want = run != nullptr ? campaign::result_digest(*run)
                                           : campaign::result_digest(*ensemble);
  out.hit_ms = 1e3 *
               timed([&] {
                 for (const auto& fp : fps) {
                   campaign::ResultCache cache(opt);
                   const auto got = cache.load(fp);
                   if (!got) {
                     out.ok = false;
                     continue;
                   }
                   const sim::Hash128 d =
                       run != nullptr
                           ? campaign::result_digest(
                                 campaign::deserialize_run_result(*got))
                           : campaign::result_digest(
                                 campaign::deserialize_ensemble_result(*got));
                   if (d != want) out.ok = false;
                 }
               }) /
               kEntries;
  std::error_code ec;
  std::filesystem::remove_all(tmp_dir, ec);
  return out;
}

}  // namespace dfbench
