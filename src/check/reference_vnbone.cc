// The vN-Bone construction rules (§3.3.1) recomputed from scratch, the
// slow path VnBone::rebuild() must agree with: component labels from
// net::connected_components after every added link, and a full
// net::dijkstra per stranded router.
#include <algorithm>
#include <set>

#include "check/oracles.h"
#include "net/graph.h"

namespace evo::check {

using net::Cost;
using net::DomainId;
using net::Graph;
using net::NodeId;
using vnbone::VirtualLink;

VnBoneBuild reference_vnbone_build(const core::EvolvableInternet& internet,
                                   const vnbone::VnBone& bone) {
  VnBoneBuild out;
  auto& links = out.links;
  if (bone.deployed_routers().empty()) return out;

  const auto& topo = internet.topology();
  const auto& config = bone.config();
  const auto domains = bone.deployed_domains();
  auto active = [&](NodeId r) { return bone.deployed(r) && topo.router(r).up; };
  auto active_routers_in = [&](DomainId domain) {
    std::vector<NodeId> members;
    for (const NodeId r : bone.deployed_routers_in(domain)) {
      if (topo.router(r).up) members.push_back(r);
    }
    return members;
  };
  auto virtual_graph = [&] {
    Graph g(topo.router_count());
    for (const auto& l : links) g.add_undirected_edge(l.a, l.b, l.underlay_cost);
    return g;
  };

  std::set<std::pair<std::uint32_t, std::uint32_t>> have;
  auto add_link = [&](NodeId a, NodeId b, Cost cost, bool interdomain,
                      VirtualLink::Source source) {
    const std::uint32_t lo = std::min(a.value(), b.value());
    const std::uint32_t hi = std::max(a.value(), b.value());
    if (!have.insert({lo, hi}).second) return;
    links.push_back(VirtualLink{a, b, cost, interdomain, source});
  };

  // ---- operator-configured (manual) tunnels -----------------------------
  for (const auto& [a, b] : bone.manual_tunnels()) {
    if (!active(a) || !active(b)) continue;
    const auto paths = net::dijkstra(topo.physical_graph(), a);
    if (!paths.reachable(b)) continue;
    const bool interdomain = topo.router(a).domain != topo.router(b).domain;
    add_link(a, b, paths.distance_to(b), interdomain, VirtualLink::Source::kManual);
  }

  // ---- congruence evolution: adopt physical links between members ------
  for (const auto& link : topo.links()) {
    if (link.interdomain || !topo.link_usable(link.id)) continue;
    if (active(link.a) && active(link.b)) {
      add_link(link.a, link.b, link.cost, false, VirtualLink::Source::kCongruent);
    }
  }

  // ---- intra-domain: k closest neighbors, then partition repair --------
  for (const DomainId domain : domains) {
    const auto members = active_routers_in(domain);
    if (members.size() < 2) continue;
    const igp::Igp& igp = *internet.igp(domain);
    auto dist = [&](NodeId a, NodeId b) { return igp.distance(a, b); };

    if (!igp.supports_member_discovery()) {
      // Footnote-3 fallback: each member, in NodeId order, tunnels to its
      // nearest earlier member.
      for (std::size_t i = 1; i < members.size(); ++i) {
        NodeId nearest = NodeId::invalid();
        Cost nearest_d = net::kInfiniteCost;
        for (std::size_t j = 0; j < i; ++j) {
          const Cost d = dist(members[i], members[j]);
          if (d < nearest_d || (d == nearest_d && members[j] < nearest)) {
            nearest = members[j];
            nearest_d = d;
          }
        }
        if (nearest.valid() && nearest_d != net::kInfiniteCost) {
          add_link(members[i], nearest, nearest_d, false,
                   VirtualLink::Source::kAnycastBootstrap);
          ++out.bootstrap_tunnels;
        }
      }
      continue;
    }

    for (const NodeId r : members) {
      std::vector<std::pair<Cost, NodeId>> ranked;
      for (const NodeId m : members) {
        if (m == r) continue;
        const Cost d = dist(r, m);
        if (d == net::kInfiniteCost) continue;
        ranked.push_back({d, m});
      }
      std::sort(ranked.begin(), ranked.end());
      const std::size_t k = std::min<std::size_t>(config.k_neighbors, ranked.size());
      for (std::size_t i = 0; i < k; ++i) {
        add_link(r, ranked[i].second, ranked[i].first, false,
                 VirtualLink::Source::kIntraK);
      }
    }

    // Partition repair: relabel the domain's virtual graph after every
    // repair link; pairs run from the lower component label to the higher.
    while (true) {
      Graph g(topo.router_count());
      for (const auto& l : links) {
        if (!l.interdomain && topo.router(l.a).domain == domain) {
          g.add_undirected_edge(l.a, l.b, l.underlay_cost);
        }
      }
      const auto comps = net::connected_components(g);
      std::set<std::uint32_t> labels;
      for (const NodeId m : members) labels.insert(comps.label[m.value()]);
      if (labels.size() <= 1) break;

      Cost best_cost = net::kInfiniteCost;
      NodeId best_a = NodeId::invalid();
      NodeId best_b = NodeId::invalid();
      for (const NodeId a : members) {
        for (const NodeId b : members) {
          if (comps.label[a.value()] >= comps.label[b.value()]) continue;
          const Cost d = dist(a, b);
          if (d < best_cost ||
              (d == best_cost && (a < best_a || (a == best_a && b < best_b)))) {
            best_cost = d;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (!best_a.valid() || best_cost == net::kInfiniteCost) break;
      add_link(best_a, best_b, best_cost, false, VirtualLink::Source::kPartitionRepair);
      ++out.partition_repairs;
    }
  }

  // ---- inter-domain: tunnels along peerings ------------------------------
  for (const DomainId da : domains) {
    for (const auto& peering : topo.domain(da).peerings) {
      const DomainId db = peering.neighbor;
      if (da >= db) continue;
      if (active_routers_in(db).empty()) continue;
      const auto& link = topo.link(peering.link);
      if (!topo.link_usable(peering.link)) continue;
      const NodeId end_a = topo.router(link.a).domain == da ? link.a : link.b;
      const NodeId end_b = link.other_end(end_a);
      // Each side's active member closest (by IGP) to its end of the
      // peering link, ties to the lowest NodeId.
      auto closest_member = [&](DomainId domain, NodeId to) {
        const igp::Igp& igp = *internet.igp(domain);
        NodeId best = NodeId::invalid();
        Cost best_d = net::kInfiniteCost;
        for (const NodeId m : active_routers_in(domain)) {
          const Cost d = m == to ? 0 : igp.distance(m, to);
          if (d < best_d || (d == best_d && m < best)) {
            best = m;
            best_d = d;
          }
        }
        return std::pair{best, best_d};
      };
      const auto [ra, da_cost] = closest_member(da, end_a);
      const auto [rb, db_cost] = closest_member(db, end_b);
      if (!ra.valid() || !rb.valid()) continue;
      if (da_cost == net::kInfiniteCost || db_cost == net::kInfiniteCost) continue;
      add_link(ra, rb, da_cost + link.cost + db_cost, true,
               VirtualLink::Source::kPeeringTunnel);
    }
  }

  // ---- anycast bootstrap: connect stranded components to the default ----
  // Relabel the whole virtual graph per tunnel; the lowest-id stranded
  // member tunnels to its nearest foreign-component member, ties to the
  // lowest NodeId.
  const Graph physical = topo.physical_graph();
  std::set<NodeId> hopeless;
  const auto members = bone.active_members();
  while (true) {
    const auto comps = net::connected_components(virtual_graph());
    const auto default_members = active_routers_in(bone.default_domain());
    if (default_members.empty()) break;
    const std::uint32_t anchor = comps.label[default_members.front().value()];

    NodeId stranded = NodeId::invalid();
    for (const NodeId r : members) {
      if (comps.label[r.value()] != anchor && !hopeless.contains(r)) {
        stranded = r;
        break;
      }
    }
    if (!stranded.valid()) break;

    const auto paths = net::dijkstra(physical, stranded);
    NodeId target = NodeId::invalid();
    Cost target_d = net::kInfiniteCost;
    for (const NodeId m : members) {
      if (comps.label[m.value()] == comps.label[stranded.value()]) continue;
      const Cost d = paths.distance_to(m);
      if (d < target_d || (d == target_d && m < target)) {
        target = m;
        target_d = d;
      }
    }
    if (!target.valid() || target_d == net::kInfiniteCost) {
      for (const NodeId r : members) {
        if (comps.label[r.value()] == comps.label[stranded.value()]) {
          hopeless.insert(r);
        }
      }
      continue;
    }
    add_link(stranded, target, target_d, true, VirtualLink::Source::kAnycastBootstrap);
    ++out.bootstrap_tunnels;
  }
  return out;
}

}  // namespace evo::check
