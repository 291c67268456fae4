#include "check/fuzzer.h"

#include <algorithm>

#include "net/topology_gen.h"
#include "sim/random.h"

namespace evo::check {

using core::EvolvableInternet;
using core::FailureEvent;
using core::FailureKind;
using net::LinkId;
using net::NodeId;

namespace {

// Seed streams: one scenario seed fans out into independent substreams so
// shrinking one dimension never perturbs another.
constexpr std::uint64_t kTopologyStream = 0x7090;
constexpr std::uint64_t kPlanStream = 0x97A2;
constexpr std::uint64_t kDropRouteStream = 0xD809;

struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ULL;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
};

/// kDropRoute fault injection: delete one IGP route from one router's FIB
/// (deterministically chosen per episode) — a lost route-installation
/// write the no-blackhole oracle must notice.
void drop_one_route(EvolvableInternet& internet, std::uint64_t seed,
                    std::size_t episode) {
  auto& network = internet.network();
  const auto& topo = internet.topology();
  if (topo.router_count() == 0) return;
  sim::Rng rng{sim::derive_seed(seed, kDropRouteStream + episode)};
  const auto start = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(topo.router_count()) - 1));
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    const NodeId node{static_cast<std::uint32_t>((start + i) % topo.router_count())};
    auto& fib = network.fib(node);
    std::optional<net::Prefix> victim;
    fib.for_each([&](const net::FibEntry& entry) {
      if (!victim && entry.origin == net::RouteOrigin::kIgp) {
        victim = entry.prefix;
      }
    });
    if (victim) {
      fib.remove(*victim);
      return;
    }
  }
}

void apply_event(EvolvableInternet& internet, const FailureEvent& event,
                 Breakage breakage) {
  if (event.kind == FailureKind::kLinkDown && breakage == Breakage::kSilentLinkDown) {
    // Poke the topology directly: no protocol is notified, so FIBs keep
    // forwarding into the dead link — the bug class the oracles exist to
    // catch.
    if (auto* recorder = internet.recorder()) {
      recorder->instant(obs::Domain::kCheck, "check.inject.silent_link_down",
                        event.subject);
    }
    internet.network().topology().set_link_up(LinkId{event.subject}, false);
    return;
  }
  core::apply_event(internet, event);
}

std::uint64_t state_digest(EvolvableInternet& internet) {
  Fnv1a fnv;
  const auto& topo = internet.topology();
  fnv.mix(internet.simulator().events_processed());
  for (const auto& router : topo.routers()) fnv.mix(router.up ? 1 : 0);
  for (const auto& link : topo.links()) fnv.mix(link.up ? 1 : 0);
  for (const auto& router : topo.routers()) {
    internet.network().fib(router.id).for_each([&](const net::FibEntry& e) {
      fnv.mix(e.prefix.address().bits());
      fnv.mix(e.prefix.length());
      fnv.mix(e.next_hop.value());
      fnv.mix(e.out_link.value());
      fnv.mix(static_cast<std::uint64_t>(e.origin));
      fnv.mix(e.metric);
    });
  }
  for (const auto& domain : topo.domains()) {
    for (const NodeId speaker : internet.bgp().speakers_of(domain.id)) {
      internet.bgp().for_each_best_route(speaker, [&](const bgp::Route& r) {
        fnv.mix(r.prefix.address().bits());
        fnv.mix(r.prefix.length());
        fnv.mix(static_cast<std::uint64_t>(r.local_pref));
        for (const auto d : r.as_path) fnv.mix(d.value());
      });
    }
  }
  for (const auto& link : internet.vnbone().virtual_links()) {
    fnv.mix(link.a.value());
    fnv.mix(link.b.value());
    fnv.mix(link.underlay_cost);
    fnv.mix(static_cast<std::uint64_t>(link.source));
  }
  return fnv.hash;
}

}  // namespace

core::Options options_for(const ScenarioPlan& plan) {
  core::Options options;
  options.igp = plan.igp;
  if (plan.breakage == Breakage::kSplitHorizon) {
    // The fault only exists in distance-vector; force that family.
    if (options.igp == core::IgpKind::kLinkState) {
      options.igp = core::IgpKind::kDistanceVector;
    }
    options.distance_vector.split_horizon = false;
    // With a RIP-sized infinity the count terminates within a few thousand
    // events and quiesces in a *correct* state; a large infinity makes the
    // pathology what it is on real metrics — effectively unbounded churn —
    // which the convergence-budget oracle then flags.
    options.distance_vector.infinity = 1 << 20;
  }
  options.vnbone.k_neighbors = plan.k_neighbors;
  options.vnbone.egress_mode = plan.egress_mode;
  options.vnbone.anycast_mode = plan.anycast_mode;
  return options;
}

ScenarioPlan generate_plan(std::uint64_t seed) {
  ScenarioPlan plan;
  plan.seed = seed;
  sim::Rng rng{sim::derive_seed(seed, kPlanStream)};

  auto& topo = plan.topology;
  topo.transit_domains = static_cast<std::uint32_t>(rng.uniform_int(2, 3));
  topo.stubs_per_transit = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  topo.transit_internal.routers = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  topo.transit_internal.chord_probability = rng.uniform(0.0, 0.5);
  topo.stub_internal.routers = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  topo.stub_internal.chord_probability = rng.uniform(0.0, 0.4);
  topo.waxman_interiors = rng.bernoulli(0.25);
  // Keep the full transit mesh: the full-health delivery oracles assume a
  // valley-free path exists between any two domains.
  topo.extra_transit_peering_probability = 1.0;
  topo.multihoming_probability = rng.uniform(0.0, 0.4);
  topo.seed = sim::derive_seed(seed, kTopologyStream);

  switch (rng.uniform_int(0, 2)) {
    case 0: plan.igp = core::IgpKind::kLinkState; break;
    case 1: plan.igp = core::IgpKind::kDistanceVector; break;
    default: plan.igp = core::IgpKind::kDistanceVectorTagged; break;
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: plan.anycast_mode = anycast::InterDomainMode::kGlobalRoutes; break;
    case 1: plan.anycast_mode = anycast::InterDomainMode::kDefaultRoute; break;
    default: plan.anycast_mode = anycast::InterDomainMode::kGia; break;
  }
  plan.k_neighbors = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  switch (rng.uniform_int(0, 3)) {
    case 0: plan.egress_mode = vnbone::EgressMode::kExitAtIngress; break;
    case 1: plan.egress_mode = vnbone::EgressMode::kOwnPathKnowledge; break;
    case 2: plan.egress_mode = vnbone::EgressMode::kProxyAdvertising; break;
    default: plan.egress_mode = vnbone::EgressMode::kEndhostAdvertised; break;
  }

  // The plan must not depend on the generated topology beyond its counts
  // (the shrinker re-validates subjects after pruning parameters).
  const net::Topology topology = net::generate_transit_stub(topo);
  const auto routers = static_cast<std::int64_t>(topology.router_count());
  const auto links = static_cast<std::int64_t>(topology.link_count());

  const auto deploy_count = rng.uniform_int(1, std::min<std::int64_t>(8, routers));
  for (const std::size_t index : rng.sample_indices(
           topology.router_count(), static_cast<std::size_t>(deploy_count))) {
    plan.initial_deployment.push_back(NodeId{static_cast<std::uint32_t>(index)});
  }

  const auto event_count = rng.uniform_int(0, 12);
  std::vector<std::uint32_t> down_links, down_nodes;
  auto at = sim::TimePoint::origin() + sim::Duration::millis(10);
  for (std::int64_t i = 0; i < event_count; ++i) {
    at = at + sim::Duration::millis(rng.uniform_int(1, 50));
    // Bias toward repairing earlier damage half the time, so scenarios
    // exercise flaps and recoveries rather than monotonic decay.
    if (!down_links.empty() && rng.bernoulli(0.3)) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(down_links.size()) - 1));
      plan.events.push_back({at, FailureKind::kLinkUp, down_links[j]});
      down_links.erase(down_links.begin() + static_cast<std::ptrdiff_t>(j));
      continue;
    }
    if (!down_nodes.empty() && rng.bernoulli(0.3)) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(down_nodes.size()) - 1));
      plan.events.push_back({at, FailureKind::kNodeUp, down_nodes[j]});
      down_nodes.erase(down_nodes.begin() + static_cast<std::ptrdiff_t>(j));
      continue;
    }
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const auto link = static_cast<std::uint32_t>(rng.uniform_int(0, links - 1));
        plan.events.push_back({at, FailureKind::kLinkDown, link});
        down_links.push_back(link);
        break;
      }
      case 1: {
        const auto node = static_cast<std::uint32_t>(rng.uniform_int(0, routers - 1));
        plan.events.push_back({at, FailureKind::kNodeDown, node});
        down_nodes.push_back(node);
        break;
      }
      case 2:
        plan.events.push_back(
            {at, FailureKind::kMemberLoss,
             static_cast<std::uint32_t>(rng.uniform_int(0, routers - 1))});
        break;
      default:
        plan.events.push_back(
            {at, FailureKind::kMemberJoin,
             static_cast<std::uint32_t>(rng.uniform_int(0, routers - 1))});
        break;
    }
  }
  return plan;
}

RunReport run_plan(const ScenarioPlan& plan, const OracleOptions& options,
                   obs::Recorder* recorder) {
  RunReport report;
  net::Topology topology = net::generate_transit_stub(plan.topology);
  report.invalid = validate(plan, topology);
  if (!report.invalid.empty()) return report;

  EvolvableInternet internet{std::move(topology), options_for(plan)};
  internet.set_recorder(recorder);
  internet.start();
  for (const NodeId router : plan.initial_deployment) {
    internet.deploy_router(router);
  }
  internet.converge();

  const auto check = [&](std::size_t episode) {
    if (plan.breakage == Breakage::kDropRoute) {
      drop_one_route(internet, plan.seed, episode);
    }
    auto violations = check_invariants(internet, options);
    for (auto& violation : violations) {
      violation.episode = episode;
      if (recorder != nullptr) {
        recorder->instant(obs::Domain::kCheck, "check.violation", episode,
                          static_cast<std::uint64_t>(violation.oracle));
      }
    }
    report.violations.insert(report.violations.end(), violations.begin(),
                             violations.end());
    ++report.episodes;
    return report.violations.empty();
  };

  if (check(0)) {
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      obs::SpanId episode_span;
      if (recorder != nullptr) {
        episode_span = recorder->open_span(
            obs::Domain::kCheck, "check.episode", i + 1,
            (std::uint64_t{static_cast<std::uint8_t>(plan.events[i].kind)} << 32) |
                plan.events[i].subject);
      }
      apply_event(internet, plan.events[i], plan.breakage);
      internet.simulator().run_events(plan.convergence_budget);
      if (!internet.simulator().idle()) {
        report.violations.push_back(
            {OracleKind::kConvergenceBudget, i + 1,
             "still " + std::to_string(internet.simulator().pending_events()) +
                 " events pending after a budget of " +
                 std::to_string(plan.convergence_budget)});
        if (recorder != nullptr) {
          recorder->instant(
              obs::Domain::kCheck, "check.violation", i + 1,
              static_cast<std::uint64_t>(OracleKind::kConvergenceBudget));
        }
        ++report.episodes;
        break;
      }
      const bool clean = check(i + 1);
      if (recorder != nullptr) {
        recorder->close_span(episode_span, report.violations.size());
      }
      if (!clean) break;
    }
  }

  report.events_processed = internet.simulator().events_processed();
  report.digest = state_digest(internet);
  return report;
}

}  // namespace evo::check
