#include "igp/link_state.h"

#include <algorithm>
#include <cassert>

namespace evo::igp {

using net::Cost;
using net::DomainId;
using net::FibEntry;
using net::Ipv4Addr;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::RouteOrigin;

LinkStateIgp::LinkStateIgp(sim::Simulator& simulator, net::Network& network,
                           DomainId domain)
    : simulator_(simulator),
      network_(network),
      domain_(domain),
      states_(network_.topology().domain(domain_).routers.size()) {}

bool LinkStateIgp::in_domain(NodeId node) const {
  return network_.topology().router(node).domain == domain_;
}

LinkStateIgp::RouterState& LinkStateIgp::state(NodeId node) {
  assert(in_domain(node) && "router not in this IGP's domain");
  return states_[network_.topology().router(node).index_in_domain];
}

const LinkStateIgp::RouterState& LinkStateIgp::state(NodeId node) const {
  assert(in_domain(node) && "router not in this IGP's domain");
  return states_[network_.topology().router(node).index_in_domain];
}

void LinkStateIgp::start() {
  started_ = true;
  for (const NodeId node : network_.topology().domain(domain_).routers) {
    originate(node);
  }
}

void LinkStateIgp::add_anycast_member(NodeId router, Ipv4Addr anycast) {
  assert(in_domain(router));
  auto& st = state(router);
  if (!st.memberships.insert(anycast).second) return;
  if (started_) originate(router);
}

void LinkStateIgp::remove_anycast_member(NodeId router, Ipv4Addr anycast) {
  assert(in_domain(router));
  auto& st = state(router);
  if (st.memberships.erase(anycast) == 0) return;
  if (started_) originate(router);
}

std::vector<NodeId> LinkStateIgp::discovered_members(NodeId viewpoint,
                                                     Ipv4Addr anycast) const {
  const auto& st = state(viewpoint);
  std::vector<NodeId> members;
  for (const auto& [origin, lsa] : st.lsdb) {
    if (std::find(lsa.anycast_addresses.begin(), lsa.anycast_addresses.end(),
                  anycast) != lsa.anycast_addresses.end()) {
      members.push_back(origin);
    }
  }
  return members;  // lsdb is an ordered map => sorted by NodeId
}

Cost LinkStateIgp::distance(NodeId from, NodeId to) const {
  const auto& distance = state(from).distance;
  return to.value() < distance.size() ? distance[to.value()] : net::kInfiniteCost;
}

void LinkStateIgp::on_link_change(LinkId link) {
  const auto& l = network_.topology().link(link);
  if (l.interdomain) return;
  if (network_.topology().router(l.a).domain != domain_) return;
  if (started_) {
    originate(l.a);
    originate(l.b);
    if (network_.topology().link_usable(link)) {
      // Adjacency came up: exchange full databases across it (OSPF DB
      // exchange). Without this, third-party LSAs that changed on the far
      // side of a partition are never re-flooded — both sides already hold
      // a (stale) copy whose sequence number blocks normal flooding.
      sync_database(l.a, l.b, link);
      sync_database(l.b, l.a, link);
    }
  }
}

void LinkStateIgp::sync_database(NodeId from, NodeId to, LinkId via) {
  const auto& st = state(from);
  const auto& topo = network_.topology();
  const auto latency = topo.link(via).latency;
  for (const auto& [origin, lsa] : st.lsdb) {
    ++messages_sent_;
    simulator_.schedule_after(latency, [this, to, lsa = lsa, via] {
      if (network_.topology().link_usable(via)) {
        receive(to, lsa, via);
      }
    });
  }
}

void LinkStateIgp::originate(NodeId router) {
  auto& st = state(router);
  Lsa lsa;
  lsa.origin = router;
  lsa.sequence = ++st.own_sequence;
  const auto& topo = network_.topology();
  for (const LinkId link_id : topo.router(router).links) {
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    lsa.adjacencies.push_back(
        LsaAdjacency{link.other_end(router), link.cost, link_id});
  }
  lsa.anycast_addresses.assign(st.memberships.begin(), st.memberships.end());

  // Self-install and flood everywhere.
  st.lsdb[router] = lsa;
  schedule_spf(router);
  flood(router, lsa, LinkId::invalid());
}

void LinkStateIgp::receive(NodeId router, Lsa lsa, LinkId via_link) {
  auto& st = state(router);
  auto it = st.lsdb.find(lsa.origin);
  if (it != st.lsdb.end() && it->second.sequence >= lsa.sequence) {
    return;  // stale or duplicate
  }
  st.lsdb[lsa.origin] = lsa;
  schedule_spf(router);
  flood(router, lsa, via_link);
}

void LinkStateIgp::flood(NodeId router, const Lsa& lsa, LinkId except) {
  const auto& topo = network_.topology();
  for (const LinkId link_id : topo.router(router).links) {
    if (link_id == except) continue;
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    const NodeId neighbor = link.other_end(router);
    ++messages_sent_;
    simulator_.schedule_after(link.latency, [this, neighbor, lsa, link_id] {
      // Re-check at delivery: the link (or an endpoint) may have failed
      // in flight.
      if (network_.topology().link_usable(link_id)) {
        receive(neighbor, lsa, link_id);
      }
    });
  }
}

void LinkStateIgp::schedule_spf(NodeId router) {
  auto& st = state(router);
  if (st.spf_pending) return;
  st.spf_pending = true;
  simulator_.schedule_after(kSpfDelay, [this, router] { run_spf(router); });
}

net::Graph LinkStateIgp::lsdb_graph(const RouterState& st) const {
  net::Graph graph(network_.topology().router_count());
  // A directed edge is used only when both endpoints report it (two-way
  // connectivity check), matching OSPF behavior on half-broken links.
  for (const auto& [origin, lsa] : st.lsdb) {
    for (const auto& adj : lsa.adjacencies) {
      const auto other = st.lsdb.find(adj.neighbor);
      if (other == st.lsdb.end()) continue;
      const bool reciprocal =
          std::any_of(other->second.adjacencies.begin(),
                      other->second.adjacencies.end(),
                      [&](const LsaAdjacency& back) { return back.neighbor == origin; });
      if (reciprocal) graph.add_edge(origin, adj.neighbor, adj.cost, adj.link);
    }
  }
  return graph;
}

void LinkStateIgp::run_spf(NodeId router) {
  auto& st = state(router);
  st.spf_pending = false;
  ++spf_runs_;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kIgp, "igp.ls.spf", domain_.value(),
                       router.value());
  }

  // Each destination's first hop and the link toward it, read once as it
  // settles: its predecessor settled before it. A first hop's link is the
  // first edge to it at its distance, the one strict relaxation kept.
  const net::Graph graph = lsdb_graph(st);
  std::vector<std::pair<NodeId, LinkId>> first(graph.size());
  const auto settle = [&](NodeId node, const net::ShortestPathSearch& search) {
    const NodeId via = search.predecessor(node.value());
    if (via != router) {
      if (via.valid()) first[node.value()] = first[via.value()];
      return true;
    }
    for (const net::Graph::Edge& e : graph.neighbors(router)) {
      if (e.to == node && e.cost == search.distance(node.value())) {
        first[node.value()] = {node, e.link};
        break;
      }
    }
    return true;
  };
  auto spf = net::dijkstra(graph, router, settle);

  // Accumulate the full IGP+anycast table, then swap it in with one
  // replace_origins call: the Fib bumps its route epoch (invalidating the
  // router's compiled forwarding table) only when this SPF run actually
  // changed something.
  std::vector<FibEntry> routes;
  const auto& topo = network_.topology();

  // Unicast routes to every other router in the LSDB.
  for (const auto& [origin, lsa] : st.lsdb) {
    if (origin == router || !spf.reachable(origin)) continue;
    const auto [hop, out] = first[origin.value()];
    const auto& r = topo.router(origin);
    const Cost metric = spf.distance_to(origin);
    routes.push_back(
        FibEntry{Prefix::host(r.loopback), hop, out, RouteOrigin::kIgp, metric});
    routes.push_back(FibEntry{net::Topology::router_subnet(r.domain, r.index_in_domain),
                              hop, out, RouteOrigin::kIgp, metric});
  }

  // Anycast routes: pick the closest member (deterministic tiebreak on
  // NodeId). The member's high-cost stub link contributes equally for all
  // members, so it is added for fidelity but cannot change the winner.
  std::map<Ipv4Addr, std::pair<Cost, NodeId>> best;
  for (const auto& [origin, lsa] : st.lsdb) {
    if (!spf.reachable(origin)) continue;
    for (const Ipv4Addr addr : lsa.anycast_addresses) {
      const Cost total = spf.distance_to(origin) + kAnycastStubCost;
      auto [it, inserted] = best.emplace(addr, std::make_pair(total, origin));
      if (!inserted && (total < it->second.first ||
                        (total == it->second.first && origin < it->second.second))) {
        it->second = {total, origin};
      }
    }
  }
  for (const auto& [addr, winner] : best) {
    const auto& [metric, member] = winner;
    if (member == router) continue;  // delivered locally; no route needed
    const auto [hop, out] = first[member.value()];
    routes.push_back(
        FibEntry{Prefix::host(addr), hop, out, RouteOrigin::kAnycast, metric});
  }

  network_.fib(router).replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast},
                                       routes);
  bool moved = spf.distance != st.distance;
  const auto& routers = topo.domain(domain_).routers;
  st.first_hop.resize(routers.size());
  for (std::size_t i = 0; i < routers.size(); ++i) {
    if (st.first_hop[i] != first[routers[i].value()]) {
      st.first_hop[i] = first[routers[i].value()];
      moved = true;
    }
  }
  if (moved) ++epoch_;
  st.distance = std::move(spf.distance);
}

}  // namespace evo::igp
