// Experiment E6 (§3.1/§3.2): anycast delivers to the closest member, under
// both IGP families, and ISPs can steer the redirection through policy.
//
// Part A: intra-domain — link-state vs distance-vector (plain and tagged)
// on random domains: delivery rate, exactness (delivered cost == oracle),
// and protocol message overhead.
//
// Part B: policy control — Figure 1's "ISP W might, based on peering
// policies, choose to route anycast packets to ISP X before Y": we flip
// W's relationship preferences and watch the catchment move.
#include "bench_util.h"

#include "anycast/resolver.h"
#include "core/scenario.h"
#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/topology_gen.h"
#include "sim/metrics.h"

namespace evo {
namespace {

using net::DomainId;
using net::NodeId;

struct IgpRun {
  double exact_fraction = 0.0;
  double delivered_fraction = 0.0;
  std::uint64_t messages = 0;
};

IgpRun run_igp(core::IgpKind kind, std::uint32_t routers, std::uint64_t seed) {
  net::Topology topo;
  const auto d = topo.add_domain("bench", /*stub=*/true);
  sim::Rng rng{seed};
  net::IntraDomainParams params;
  params.routers = routers;
  params.chord_probability = 0.3;
  params.max_cost = 9;
  net::populate_domain(topo, d, params, rng);

  sim::Simulator simulator;
  net::Network network(std::move(topo));
  std::unique_ptr<igp::Igp> igp;
  switch (kind) {
    case core::IgpKind::kLinkState:
      igp = std::make_unique<igp::LinkStateIgp>(simulator, network, d);
      break;
    case core::IgpKind::kDistanceVector:
      igp = std::make_unique<igp::DistanceVectorIgp>(simulator, network, d);
      break;
    case core::IgpKind::kDistanceVectorTagged:
      igp = std::make_unique<igp::DistanceVectorIgp>(simulator, network, d,
                                                     /*tagged_advertisements=*/true);
      break;
  }

  const auto& routers_vec = network.topology().domain(d).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  std::vector<NodeId> members;
  for (const auto index : rng.sample_indices(routers_vec.size(), 3)) {
    const NodeId m = routers_vec[index];
    network.add_local_address(m, anycast);
    igp->add_anycast_member(m, anycast);
    members.push_back(m);
  }
  igp->start();
  simulator.run();

  const auto oracle =
      net::dijkstra(network.topology().physical_graph(),
                    std::span<const NodeId>(members));
  IgpRun result;
  std::size_t exact = 0;
  std::size_t delivered = 0;
  // All-router probe fan-out in one batch: compiled forwarding tables are
  // built once per router and shared across every probe that crosses it.
  std::vector<net::Network::ProbeSpec> probes;
  probes.reserve(routers_vec.size());
  for (const NodeId src : routers_vec) {
    probes.push_back({.from = src, .dst = anycast});
  }
  const auto traces = network.trace_batch(probes);
  for (std::size_t i = 0; i < routers_vec.size(); ++i) {
    const auto& trace = traces[i];
    if (!trace.delivered()) continue;
    ++delivered;
    if (trace.cost == oracle.distance_to(routers_vec[i])) ++exact;
  }
  result.delivered_fraction =
      static_cast<double>(delivered) / static_cast<double>(routers_vec.size());
  result.exact_fraction =
      delivered == 0 ? 0.0 : static_cast<double>(exact) / static_cast<double>(delivered);
  result.messages = igp->messages_sent();
  return result;
}

void intra_domain_comparison() {
  bench::banner("E6/A: intra-domain anycast by IGP family (3 members, 10 seeds)");
  bench::row("%-26s %-10s %-12s %-12s %-14s", "igp", "routers", "delivered",
             "exact", "mean-messages");
  for (const core::IgpKind kind :
       {core::IgpKind::kLinkState, core::IgpKind::kDistanceVector,
        core::IgpKind::kDistanceVectorTagged}) {
    for (const std::uint32_t routers : {8u, 16u, 32u}) {
      sim::Summary delivered;
      sim::Summary exact;
      sim::Summary messages;
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto run = run_igp(kind, routers, seed * 101);
        delivered.add(run.delivered_fraction);
        exact.add(run.exact_fraction);
        messages.add(static_cast<double>(run.messages));
      }
      bench::row("%-26s %-10u %-12.3f %-12.3f %-14.0f", to_string(kind), routers,
                 delivered.mean(), exact.mean(), messages.mean());
    }
  }
  bench::row(
      "claim: both IGP families deliver to the exact closest member; "
      "distance-vector needs no LSDB but loses member discovery unless "
      "tagged.");
}

void policy_control() {
  bench::banner(
      "E6/B: policy-controlled redirection (Figure 1's W choosing X before Y)");
  // W is transit for deployed X and Y. W's exit choice is hot-potato by
  // default; an operator preference is modeled by biasing W's internal
  // costs toward one border.
  auto fig = core::make_figure1();
  core::Options options;
  options.vnbone.anycast_mode = anycast::InterDomainMode::kGlobalRoutes;
  core::EvolvableInternet net(std::move(fig.topology), options);
  net.start();
  net.deploy_domain(fig.x);
  net.deploy_domain(fig.y);
  net.converge();

  const auto& topo = net.topology();
  const auto& group = net.anycast().group(net.vnbone().anycast_group());
  bench::row("%-26s %-14s", "W interior bias", "Z's packets land in");
  auto serving = [&]() -> std::string {
    const auto probe = anycast::probe(net.network(), group,
                                      topo.host(fig.client).access_router);
    return probe.delivered()
               ? topo.domain(topo.router(probe.member).domain).name
               : "<none>";
  };
  bench::row("%-26s %-14s", "none (hot potato)", serving().c_str());
  // Policy lever: W withdraws its peering toward Y for this route (the
  // paper's "choose to route anycast packets to ISP X before Y"). Modeled
  // as the W-Y session going administratively down; Z's packets shift to X.
  net::LinkId wy = net::LinkId::invalid();
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    const auto da = topo.router(link.a).domain;
    const auto db = topo.router(link.b).domain;
    if ((da == fig.w && db == fig.y) || (da == fig.y && db == fig.w)) wy = link.id;
  }
  net.set_link_up(wy, false);
  net.converge();
  bench::row("%-26s %-14s", "W-Y route withdrawn", serving().c_str());
  bench::row(
      "claim: the serving provider follows the ISP's policy choices — "
      "redirection control stays with operators, decentralized.");
}

}  // namespace
}  // namespace evo

int main() {
  evo::intra_domain_comparison();
  evo::policy_control();
  return 0;
}
