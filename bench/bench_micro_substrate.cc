// Experiment E9: substrate microbenchmarks (google-benchmark).
//
// FIB longest-prefix match, Dijkstra/SPF, trace throughput, event-queue
// schedule/fire, vN-Bone route lookups, control plane convergence (LS
// flooding, DV settling, BGP propagation, a border router's crash and
// recovery), the BGP-to-FIB install after one flap and one run of the
// invariant oracles — the costs that bound how large the scenario
// experiments and the fuzzer can scale.
//
// `--json <path>` additionally writes a flat {metric → value} artifact
// (ns_per_op and items_per_sec per benchmark); BENCH_micro_substrate.json
// at the repo root is the committed baseline of that output. A key is
// recorded from at least three sessions an hour apart, each three CI-style
// runs (`--benchmark_min_time=0.05`): take each session's best value
// (lowest ns_per_op, highest items_per_sec), then the worst of those. CI's
// gate is also a best of three in one session, and one session can fall in
// a slow or a fast period of a shared machine: a baseline that every
// session's best meets is one the gate passes in each period seen.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "bench_util.h"
#include "check/fuzzer.h"
#include "core/evolvable_internet.h"
#include "core/trace.h"
#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/compiled_fib.h"
#include "net/fib.h"
#include "net/topology_gen.h"
#include "sim/event_queue.h"
#include "sim/inplace_fn.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace evo {
namespace {

/// `entries` /16 routes, the table shape BM_FibLookup has always used.
net::Fib make_fib(std::uint32_t entries) {
  net::Fib fib;
  for (std::uint32_t i = 0; i < entries; ++i) {
    net::FibEntry e;
    e.prefix = net::Prefix{net::Ipv4Addr{(i + 1) << 16}, 16};
    e.next_hop = net::NodeId{i};
    fib.insert(e);
  }
  return fib;
}

/// Pre-generated probe addresses hitting random installed /16s. Generating
/// addresses inside the timed loop serializes every iteration behind a
/// 64-bit divide, which dominates and masks the actual lookup cost.
std::vector<net::Ipv4Addr> make_probes(std::uint32_t entries) {
  sim::Rng rng{1};
  std::vector<net::Ipv4Addr> probes(4096);
  for (auto& addr : probes) {
    addr = net::Ipv4Addr{static_cast<std::uint32_t>(
        ((rng.next_u64() % entries + 1) << 16) | 7)};
  }
  return probes;
}

void BM_FibLookup(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const net::Fib fib = make_fib(entries);
  const auto probes = make_probes(entries);
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    hits += fib.lookup(probes[i]) != nullptr;
    i = (i + 1) & (probes.size() - 1);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CompiledFibLookup(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const net::Fib fib = make_fib(entries);
  net::CompiledFib compiled;
  compiled.compile(fib);
  const auto probes = make_probes(entries);
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    hits += compiled.lookup(probes[i]) != nullptr;
    i = (i + 1) & (probes.size() - 1);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledFibLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CompiledFibCompile(benchmark::State& state) {
  // Recompile cost: what one route-epoch invalidation costs a router the
  // next time the data plane touches it.
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const net::Fib fib = make_fib(entries);
  net::CompiledFib compiled;
  for (auto _ : state) {
    compiled.compile(fib);
    benchmark::DoNotOptimize(compiled.range_count());
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_CompiledFibCompile)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FibFind(benchmark::State& state) {
  // Exact-match finds, the install path's FIB access, on a table shaped
  // like one perfbench router's: a /16 per domain, plus its own domain's
  // /24 router subnets and /32 loopbacks.
  net::Fib fib;
  std::vector<net::Prefix> prefixes;
  for (std::uint32_t d = 0; d < 208; ++d) {
    prefixes.push_back(net::Prefix{net::Ipv4Addr{(d + 1) << 16}, 16});
  }
  for (std::uint32_t r = 0; r < 26; ++r) {
    prefixes.push_back(net::Prefix{net::Ipv4Addr{(1u << 16) | (r << 8)}, 24});
    prefixes.push_back(net::Prefix::host(net::Ipv4Addr{(1u << 16) | (r << 8) | 1}));
  }
  for (std::uint32_t i = 0; i < prefixes.size(); ++i) {
    fib.insert(net::FibEntry{prefixes[i], net::NodeId{i}, net::LinkId{i}});
  }
  sim::Rng rng{3};
  std::vector<net::Prefix> probes(4096);
  for (auto& p : probes) p = rng.pick(prefixes);
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    hits += fib.find(probes[i]) != nullptr;
    i = (i + 1) & (probes.size() - 1);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(fib.size()) + " entries");
}
BENCHMARK(BM_FibFind);

void BM_FibInsert(benchmark::State& state) {
  for (auto _ : state) {
    net::Fib fib;
    for (std::uint32_t i = 0; i < 1024; ++i) {
      net::FibEntry e;
      e.prefix = net::Prefix{net::Ipv4Addr{(i + 1) << 16}, 16};
      e.next_hop = net::NodeId{i};
      fib.insert(e);
    }
    benchmark::DoNotOptimize(fib.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FibInsert);

// ---------------------------------------------------------------------------
// Event queue: calendar queue vs the heap it replaced.

/// The pre-calendar EventQueue, kept verbatim as the performance baseline:
/// one std::priority_queue entry + one type-erasure allocation + one
/// shared_ptr<bool> cancellation flag per event.
class RefHeapQueue {
 public:
  void schedule(sim::TimePoint when, std::function<void()> fn) {
    heap_.push(Entry{when, next_seq_++, std::move(fn),
                     std::make_shared<bool>(false)});
  }
  bool empty() const {
    skim();
    return heap_.empty();
  }
  struct Popped {
    sim::TimePoint when;
    std::function<void()> fn;
  };
  Popped pop() {
    skim();
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    *top.cancelled = true;
    return Popped{top.when, std::move(top.fn)};
  }

 private:
  struct Entry {
    sim::TimePoint when;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void skim() const {
    while (!heap_.empty() && *heap_.top().cancelled) heap_.pop();
  }
  mutable std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Pseudorandom event delays, the hold-model's arrival process: mostly
/// sub-horizon (link latencies, protocol timers), a tail of multi-second
/// timers that exercises the calendar's overflow path.
std::vector<sim::Duration> make_delays() {
  sim::Rng rng{99};
  std::vector<sim::Duration> delays(4096);
  for (auto& d : delays) {
    const auto us = rng.uniform_int(1, 50'000);          // up to 50ms
    d = sim::Duration::micros(rng.bernoulli(0.01) ? us * 200 : us);
  }
  return delays;
}

/// Classic hold model: keep `hold` events pending; each iteration fires
/// the earliest and schedules a replacement. Measures steady-state
/// schedule+fire cost including the callback's type erasure.
template <typename Queue>
void schedule_fire_hold(benchmark::State& state) {
  const auto hold = static_cast<std::size_t>(state.range(0));
  const auto delays = make_delays();
  Queue q;
  std::uint64_t fired = 0;
  sim::TimePoint now = sim::TimePoint::origin();
  std::size_t i = 0;
  for (std::size_t k = 0; k < hold; ++k) {
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  for (auto _ : state) {
    auto popped = q.pop();
    now = popped.when;
    popped.fn();
    q.schedule(now + delays[i++ & (delays.size() - 1)], [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueueScheduleFire(benchmark::State& state) {
  schedule_fire_hold<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RefHeapScheduleFire(benchmark::State& state) {
  schedule_fire_hold<RefHeapQueue>(state);
}
BENCHMARK(BM_RefHeapScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------------
// Callback type erasure: InplaceFn vs std::function for a capture that is
// representative of protocol events (40 bytes: this-style pointer + ids).

struct FatCapture {
  std::uint64_t* sink;
  std::uint64_t a, b, c, d;
  void operator()() const { *sink += a + b + c + d; }
};

void BM_InplaceFnRoundTrip(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    sim::EventFn fn{FatCapture{&sink, ++i, 2, 3, 4}};
    benchmark::DoNotOptimize(fn);  // forbid folding the erased dispatch away
    fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InplaceFnRoundTrip);

void BM_StdFunctionRoundTrip(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::function<void()> fn{FatCapture{&sink, ++i, 2, 3, 4}};
    benchmark::DoNotOptimize(fn);
    fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionRoundTrip);

// ---------------------------------------------------------------------------
// ParallelSweep: harness overhead and scaling on a real simulator cell.

void BM_ParallelSweepCells(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const sim::ParallelSweep pool(threads);
  for (auto _ : state) {
    const auto results = pool.run(
        8, /*sweep_seed=*/7, [](std::size_t, sim::Rng& rng) {
          sim::Simulator simulator;
          std::uint64_t acc = 0;
          for (int burst = 0; burst < 64; ++burst) {
            for (int e = 0; e < 64; ++e) {
              simulator.schedule_after(
                  sim::Duration::micros(rng.uniform_int(1, 20'000)),
                  [&acc] { ++acc; });
            }
            simulator.run();
          }
          sim::CellResult result;
          result.metrics.increment("events", static_cast<std::int64_t>(acc));
          return result;
        });
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 64 * 64);
}
// Wall time: the cells run on pool threads, so the main thread's CPU time
// says nothing about throughput.
BENCHMARK(BM_ParallelSweepCells)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Dijkstra(benchmark::State& state) {
  // An n x n unit-cost grid with edges in single_domain_grid's order, built
  // as a bare Graph: one domain's address plan numbers at most 255 routers.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  net::Graph graph(n * n);
  for (std::uint32_t at = 0; at < n * n; ++at) {
    const net::NodeId node{at};
    if (at % n + 1 < n) graph.add_undirected_edge(node, net::NodeId{at + 1}, 1);
    if (at / n + 1 < n) graph.add_undirected_edge(node, net::NodeId{at + n}, 1);
  }
  for (auto _ : state) {
    const auto paths = net::dijkstra(graph, net::NodeId{0});
    benchmark::DoNotOptimize(paths.distance.back());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Dijkstra)->Arg(8)->Arg(16)->Arg(32);

void BM_DataPlaneTrace(benchmark::State& state) {
  core::EvolvableInternet net(net::single_domain_grid(8, 8));
  net.start();
  const auto& routers = net.topology().domain(net::DomainId{0}).routers;
  const auto dst = net.topology().router(routers.back()).loopback;
  for (auto _ : state) {
    const auto trace = net.network().trace(routers.front(), dst);
    benchmark::DoNotOptimize(trace.cost);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataPlaneTrace);

void BM_DataPlaneTraceBatch(benchmark::State& state) {
  // All-pairs-from-corner probe fan-out through trace_batch. Nothing
  // writes between iterations, so after the first every probe is a leg
  // cache hit: this times the hit path (stamp, index probe, hop copy).
  core::EvolvableInternet net(net::single_domain_grid(8, 8));
  net.start();
  const auto& routers = net.topology().domain(net::DomainId{0}).routers;
  std::vector<net::Network::ProbeSpec> probes;
  probes.reserve(routers.size());
  for (const auto dst : routers) {
    probes.push_back({.from = routers.front(),
                      .dst = net.topology().router(dst).loopback});
  }
  for (auto _ : state) {
    const auto traces = net.network().trace_batch(probes);
    benchmark::DoNotOptimize(traces.back().cost);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_DataPlaneTraceBatch);

void BM_LinkStateConvergence(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology topo;
    const auto d = topo.add_domain("d");
    sim::Rng rng{42};
    net::populate_domain(topo, d, {.routers = n, .chord_probability = 0.3}, rng);
    sim::Simulator simulator;
    net::Network network(std::move(topo));
    igp::LinkStateIgp igp(simulator, network, d);
    state.ResumeTiming();
    igp.start();
    simulator.run();
    benchmark::DoNotOptimize(igp.messages_sent());
  }
}
BENCHMARK(BM_LinkStateConvergence)->Arg(8)->Arg(16)->Arg(32);

void BM_DistanceVectorConvergence(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology topo;
    const auto d = topo.add_domain("d");
    sim::Rng rng{42};
    net::populate_domain(topo, d, {.routers = n, .chord_probability = 0.3}, rng);
    sim::Simulator simulator;
    net::Network network(std::move(topo));
    igp::DistanceVectorIgp igp(simulator, network, d);
    state.ResumeTiming();
    igp.start();
    simulator.run();
    benchmark::DoNotOptimize(igp.messages_sent());
  }
}
BENCHMARK(BM_DistanceVectorConvergence)->Arg(8)->Arg(16)->Arg(32);

void BM_BgpConvergence(benchmark::State& state) {
  const auto domains = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto topo = net::generate_transit_stub(
        {.transit_domains = domains / 4 + 1,
         .stubs_per_transit = 3,
         .seed = 11});
    auto net = std::make_unique<core::EvolvableInternet>(std::move(topo));
    state.ResumeTiming();
    net->start();
    benchmark::DoNotOptimize(net->bgp().messages_sent());
  }
}
BENCHMARK(BM_BgpConvergence)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_InstallRoutesAfterFlap(benchmark::State& state) {
  // The delta install after one eBGP flap: each iteration toggles the first
  // inter-domain link and lets BGP converge untimed, then times
  // install_routes() alone.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net::LinkId flapped = net::LinkId::invalid();
  for (const auto& link : net.topology().links()) {
    if (link.interdomain) {
      flapped = link.id;
      break;
    }
  }
  auto& topology = net.network().topology();
  for (auto _ : state) {
    state.PauseTiming();
    topology.set_link_up(flapped, !topology.link(flapped).up);
    net.bgp().on_link_change(flapped);
    net.simulator().run();
    state.ResumeTiming();
    net.bgp().install_routes();
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(net.topology().domain_count()) + " domains");
}
BENCHMARK(BM_InstallRoutesAfterFlap)->Unit(benchmark::kMicrosecond);

void BM_CheckInvariants(benchmark::State& state) {
  // Every oracle, as run_plan runs them at each quiescent point, on fuzz
  // seed 1's converged Internet before its churn.
  const auto plan = check::generate_plan(1);
  core::EvolvableInternet net(net::generate_transit_stub(plan.topology),
                              check::options_for(plan));
  net.start();
  for (const net::NodeId router : plan.initial_deployment) net.deploy_router(router);
  net.converge();
  for (auto _ : state) {
    const auto violations = check::check_invariants(net);
    benchmark::DoNotOptimize(violations.size());
  }
  state.SetLabel(std::to_string(net.topology().router_count()) + " routers");
}
BENCHMARK(BM_CheckInvariants)->Unit(benchmark::kMicrosecond);

void BM_BgpCrashRecover(benchmark::State& state) {
  // One transit border router crashes and recovers on
  // BM_InstallRoutesAfterFlap's Internet. Each iteration times the two
  // Simulator::run() calls that reconverge (the UPDATE waves, the IGP
  // floods and the quiescent sync); the injections are untimed.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net::NodeId victim = net::NodeId::invalid();
  for (const auto& router : net.topology().routers()) {
    if (router.border && !net.topology().domain(router.domain).stub) {
      victim = router.id;
      break;
    }
  }
  for (auto _ : state) {
    for (const bool up : {false, true}) {
      state.PauseTiming();
      net.set_node_up(victim, up);
      state.ResumeTiming();
      net.simulator().run();
    }
    benchmark::DoNotOptimize(net.bgp().messages_sent());
  }
  state.SetLabel("router " + std::to_string(victim.value()));
}
BENCHMARK(BM_BgpCrashRecover)->Unit(benchmark::kMicrosecond);

void BM_VnBoneRebuild(benchmark::State& state) {
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  for (const auto& d : net.topology().domains()) net.deploy_domain(d.id);
  net.converge();
  for (auto _ : state) {
    net.vnbone().rebuild();
    benchmark::DoNotOptimize(net.vnbone().virtual_links().size());
  }
  state.SetLabel(std::to_string(net.vnbone().deployed_routers().size()) +
                 " routers");
}
BENCHMARK(BM_VnBoneRebuild)->Unit(benchmark::kMillisecond);

void BM_VnBoneRebuildPartial(benchmark::State& state) {
  // Every third domain deployed, as in BM_VnBoneRoute: stranded deployed
  // domains join through the anycast bootstrap on every rebuild.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 3) net.deploy_domain(domains[i].id);
  net.converge();
  for (auto _ : state) {
    net.vnbone().rebuild();
    benchmark::DoNotOptimize(net.vnbone().virtual_links().size());
  }
  state.SetLabel(std::to_string(net.vnbone().bootstrap_tunnels()) + " bootstrap tunnels");
}
BENCHMARK(BM_VnBoneRebuildPartial)->Unit(benchmark::kMicrosecond);

void BM_VnBoneRoute(benchmark::State& state) {
  // Warm proxy-advertising lookups: every tree and legacy-table entry the
  // loop reads is filled before timing starts.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 3) net.deploy_domain(domains[i].id);
  net.converge();
  const auto& bone = net.vnbone();
  const auto ingresses = bone.active_members();
  std::vector<std::pair<net::NodeId, net::IpvNAddr>> queries;
  for (const auto& domain : domains) {
    const auto dst = net::IpvNAddr::self(
        8, net.topology().router(domain.routers.front()).loopback);
    for (const net::NodeId ingress : ingresses) queries.push_back({ingress, dst});
  }
  for (const auto& [ingress, dst] : queries) {
    benchmark::DoNotOptimize(bone.route(ingress, dst, vnbone::EgressMode::kProxyAdvertising));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [ingress, dst] = queries[i++ % queries.size()];
    const auto route = bone.route(ingress, dst, vnbone::EgressMode::kProxyAdvertising);
    benchmark::DoNotOptimize(route.egress);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VnBoneRoute);

void BM_VnBoneRouteCold(benchmark::State& state) {
  // rollout's read path: untimed, each iteration toggles a manual tunnel
  // between two deployed routers and rebuilds, so the links change and
  // every tree drops; it then times the first proxy-advertising route()
  // from each active member, each of which builds that member's tree.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 4, .stubs_per_transit = 3, .seed = 13});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 3) net.deploy_domain(domains[i].id);
  net.converge();
  auto& bone = net.vnbone();
  const auto ingresses = bone.active_members();
  const auto legacy = net.topology().router(domains[1].routers.front()).loopback;
  const auto dst = net::IpvNAddr::self(8, legacy);
  for (auto _ : state) {
    state.PauseTiming();
    if (bone.manual_tunnel_count() == 0) {
      bone.add_manual_tunnel(ingresses.front(), ingresses.back());
    } else {
      bone.remove_manual_tunnel(ingresses.front(), ingresses.back());
    }
    bone.rebuild();
    state.ResumeTiming();
    for (const net::NodeId ingress : ingresses) {
      benchmark::DoNotOptimize(
          bone.route(ingress, dst, vnbone::EgressMode::kProxyAdvertising));
    }
  }
  state.SetLabel(std::to_string(ingresses.size()) + " ingresses");
}
BENCHMARK(BM_VnBoneRouteCold)->Unit(benchmark::kMicrosecond);

void BM_EndToEndSend(benchmark::State& state) {
  auto topo = net::generate_transit_stub(
      {.transit_domains = 2, .stubs_per_transit = 2, .seed = 17});
  sim::Rng rng{17};
  net::attach_hosts(topo, 2, rng);
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(net::DomainId{0});
  net.converge();
  for (auto _ : state) {
    const auto trace = core::send_ipvn(net, net::HostId{0}, net::HostId{7});
    benchmark::DoNotOptimize(trace.delivered);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndSend);

void BM_SendIpvnBatchWarm(benchmark::State& state) {
  // forward's step on BM_EndToEndSend's Internet: a 16-pair
  // send_ipvn_batch with the leg cache warm, so every ingress, tunnel and
  // egress leg is a hit and the vN-Bone route is what remains.
  auto topo = net::generate_transit_stub(
      {.transit_domains = 2, .stubs_per_transit = 2, .seed = 17});
  sim::Rng rng{17};
  net::attach_hosts(topo, 2, rng);
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(net::DomainId{0});
  net.converge();
  const auto hosts = static_cast<std::uint32_t>(net.topology().host_count());
  std::vector<core::HostPair> pairs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    pairs.push_back({net::HostId{i % hosts}, net::HostId{(7 * i + 5) % hosts}});
  }
  benchmark::DoNotOptimize(core::send_ipvn_batch(net, pairs));
  for (auto _ : state) {
    const auto traces = core::send_ipvn_batch(net, pairs);
    benchmark::DoNotOptimize(traces.back().delivered);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_SendIpvnBatchWarm);

/// ConsoleReporter that additionally records ns_per_op (and items_per_sec
/// when SetItemsProcessed was used) for the --json artifact.
class JsonRecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRecordingReporter(bench::JsonWriter& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      json_.set(name + ".ns_per_op", run.real_accumulated_time /
                                         static_cast<double>(run.iterations) *
                                         1e9);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        json_.set(name + ".items_per_sec", items->second.value);
      }
    }
  }

 private:
  bench::JsonWriter& json_;
};

}  // namespace
}  // namespace evo

int main(int argc, char** argv) {
  // Peel off --json <path> (ours) before google-benchmark sees the rest.
  std::string json_path;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::string_view(*it) == "--json" && it + 1 != args.end()) {
      json_path = *(it + 1);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  evo::bench::JsonWriter json;
  evo::bench::fill_standard_meta(json, "micro_substrate", 1);
  evo::JsonRecordingReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
