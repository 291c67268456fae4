#include "check/oracles.h"

#include <algorithm>
#include <map>
#include <set>

#include "anycast/anycast.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/random.h"

namespace evo::check {

using core::EvolvableInternet;
using net::Cost;
using net::DomainId;
using net::Graph;
using net::Ipv4Addr;
using net::kInfiniteCost;
using net::NodeId;
using net::Relationship;

namespace {

using Outcome = net::Network::TraceResult::Outcome;

const char* to_cstr(Outcome outcome) { return net::to_string(outcome); }

bool full_health(const net::Topology& topo) {
  for (const auto& router : topo.routers()) {
    if (!router.up) return false;
  }
  for (const auto& link : topo.links()) {
    if (!link.up) return false;
  }
  return true;
}

std::string node_str(NodeId node) { return std::to_string(node.value()); }

/// Checks shared by every trace the oracles issue: loops and TTL
/// exhaustion are always bugs, and at a quiescent point no FIB may still
/// forward over a dead link (stale-route detection).
void note_trace(const net::Network::TraceResult& trace, NodeId from,
                const std::string& what, std::vector<Violation>& out) {
  if (trace.outcome == Outcome::kForwardingLoop ||
      trace.outcome == Outcome::kTtlExpired) {
    out.push_back({OracleKind::kLoopFreedom, 0,
                   what + " from " + node_str(from) + ": " + to_cstr(trace.outcome)});
  } else if (trace.outcome == Outcome::kLinkDown) {
    out.push_back({OracleKind::kNoBlackhole, 0,
                   what + " from " + node_str(from) +
                       ": forwarded into a dead link at quiescence"});
  }
}

/// ---- IGP ground truth + intra-domain data plane -------------------------

void check_igp_and_intradomain(const EvolvableInternet& internet,
                               std::vector<Violation>& out) {
  const auto& topo = internet.topology();
  const auto& network = internet.network();
  for (const auto& domain : topo.domains()) {
    const auto* igp = internet.igp(domain.id);
    if (igp == nullptr) continue;
    const Graph g = topo.domain_graph(domain.id);
    for (const NodeId u : domain.routers) {
      if (!topo.router(u).up) continue;
      const auto truth = net::dijkstra(g, u);
      for (const NodeId v : domain.routers) {
        if (u == v || !topo.router(v).up) continue;
        const Cost expect = truth.distance_to(v);
        const Cost got = igp->distance(u, v);
        if (got != expect) {
          out.push_back({OracleKind::kIgpGroundTruth, 0,
                         "domain " + std::to_string(domain.id.value()) + " " +
                             node_str(u) + "->" + node_str(v) + ": igp says " +
                             (got == kInfiniteCost ? "inf" : std::to_string(got)) +
                             ", dijkstra says " +
                             (expect == kInfiniteCost ? "inf"
                                                      : std::to_string(expect))});
          continue;
        }
        const auto trace = network.trace(u, topo.router(v).loopback);
        note_trace(trace, u, "intra-domain unicast", out);
        if (trace.delivered() && trace.delivered_at != v) {
          out.push_back({OracleKind::kNoBlackhole, 0,
                         "intra-domain unicast " + node_str(u) + "->" + node_str(v) +
                             " misdelivered at " + node_str(trace.delivered_at)});
        } else if (expect != kInfiniteCost && !trace.delivered()) {
          out.push_back({OracleKind::kNoBlackhole, 0,
                         "intra-domain unicast " + node_str(u) + "->" + node_str(v) +
                             " blackholed (" + to_cstr(trace.outcome) +
                             ") though dijkstra distance is " +
                             std::to_string(expect)});
        }
      }
    }
  }
}

/// ---- inter-domain unicast ------------------------------------------------

void check_interdomain_unicast(const EvolvableInternet& internet, bool healthy,
                               const OracleOptions& options,
                               std::vector<Violation>& out) {
  const auto& topo = internet.topology();
  const auto& network = internet.network();
  if (topo.domain_count() < 2 || topo.router_count() < 2) return;
  sim::Rng rng{sim::derive_seed(options.probe_seed, 0xA11)};
  const auto n = static_cast<std::int64_t>(topo.router_count());
  for (std::uint32_t i = 0; i < options.interdomain_pairs; ++i) {
    const NodeId u{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId v{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (u == v || topo.router(u).domain == topo.router(v).domain) continue;
    if (!topo.router(u).up || !topo.router(v).up) continue;
    const auto trace = network.trace(u, topo.router(v).loopback);
    note_trace(trace, u, "inter-domain unicast", out);
    if (trace.delivered() && trace.delivered_at != v) {
      out.push_back({OracleKind::kNoBlackhole, 0,
                     "inter-domain unicast " + node_str(u) + "->" + node_str(v) +
                         " misdelivered at " + node_str(trace.delivered_at)});
    }
    // Under full health the generator guarantees a valley-free path
    // between any two domains (complete transit core, stubs are
    // customers), so BGP must deliver. Under failures, policy may
    // legitimately blackhole even physically-connected pairs.
    if (healthy && !trace.delivered()) {
      out.push_back({OracleKind::kNoBlackhole, 0,
                     "inter-domain unicast " + node_str(u) + "->" + node_str(v) +
                         " blackholed (" + to_cstr(trace.outcome) +
                         ") at full health"});
    }
  }
}

/// ---- anycast delivery ----------------------------------------------------

void check_anycast(const EvolvableInternet& internet, bool healthy,
                   std::vector<Violation>& out) {
  const auto& vnbone = internet.vnbone();
  if (!vnbone.anycast_group().valid()) return;
  const auto& topo = internet.topology();
  const auto& network = internet.network();
  const auto& group = internet.anycast().group(vnbone.anycast_group());

  std::vector<NodeId> active;
  for (const NodeId m : group.members) {
    if (topo.router(m).up) active.push_back(m);
  }
  const bool default_has_member =
      std::any_of(active.begin(), active.end(), [&](NodeId m) {
        return topo.router(m).domain == group.config.default_domain;
      });
  const bool must_deliver =
      healthy && !active.empty() &&
      (group.config.mode == anycast::InterDomainMode::kGlobalRoutes
           ? true
           : default_has_member);

  // Exact closest-member distances over the usable physical topology.
  const Graph phys = topo.physical_graph();
  const auto oracle = active.empty()
                          ? net::ShortestPaths{}
                          : net::dijkstra(phys, std::span<const NodeId>(active));

  for (const auto& router : topo.routers()) {
    if (!router.up) continue;
    const NodeId s = router.id;
    const auto trace = network.trace(s, group.address);
    note_trace(trace, s, "anycast", out);
    if (trace.delivered()) {
      const NodeId at = trace.delivered_at;
      if (std::find(active.begin(), active.end(), at) == active.end()) {
        out.push_back({OracleKind::kMemberDelivery, 0,
                       "anycast from " + node_str(s) + " delivered at " +
                           node_str(at) + ", which is not a live member"});
      } else if (trace.cost < oracle.distance_to(s)) {
        out.push_back({OracleKind::kMemberDelivery, 0,
                       "anycast from " + node_str(s) + " delivered at cost " +
                           std::to_string(trace.cost) +
                           ", below the closest-member oracle " +
                           std::to_string(oracle.distance_to(s))});
      }
    } else if (must_deliver) {
      out.push_back({OracleKind::kNoBlackhole, 0,
                     "anycast from " + node_str(s) + " blackholed (" +
                         to_cstr(trace.outcome) + ") at full health under " +
                         to_string(group.config.mode)});
    }

    // §3.2 intra-domain capture: a live member of the source's own domain
    // that the source can reach intra-domain must win, at exact IGP cost.
    const auto& domain = topo.domain(router.domain);
    std::vector<NodeId> local_members;
    for (const NodeId m : active) {
      if (topo.router(m).domain == router.domain) local_members.push_back(m);
    }
    if (local_members.empty()) continue;
    const Graph dg = topo.domain_graph(domain.id);
    const auto intra = net::dijkstra(dg, s);
    Cost best = kInfiniteCost;
    for (const NodeId m : local_members) {
      best = std::min(best, intra.distance_to(m));
    }
    if (best == kInfiniteCost) continue;  // intra-partitioned from all members
    if (!trace.delivered()) {
      out.push_back({OracleKind::kIntraDomainClosest, 0,
                     "anycast from " + node_str(s) +
                         " blackholed though a member of its own domain is " +
                         std::to_string(best) + " away"});
    } else if (topo.router(trace.delivered_at).domain != router.domain) {
      out.push_back({OracleKind::kIntraDomainClosest, 0,
                     "anycast from " + node_str(s) + " escaped to " +
                         node_str(trace.delivered_at) +
                         " though its own domain has a reachable member"});
    } else if (trace.cost != best) {
      out.push_back({OracleKind::kIntraDomainClosest, 0,
                     "anycast from " + node_str(s) + " delivered at cost " +
                         std::to_string(trace.cost) +
                         ", closest in-domain member is " + std::to_string(best)});
    }
  }
}

/// ---- FIB vs CompiledFib differential ------------------------------------

void check_fib_equivalence(const EvolvableInternet& internet,
                           const OracleOptions& options,
                           std::vector<Violation>& out) {
  const auto& topo = internet.topology();
  const auto& network = internet.network();

  std::vector<Ipv4Addr> probes;
  probes.push_back(Ipv4Addr{0});
  probes.push_back(Ipv4Addr{0xFFFFFFFFu});
  for (const auto& router : topo.routers()) probes.push_back(router.loopback);
  for (const auto& domain : topo.domains()) {
    probes.push_back(domain.prefix.address());
    probes.push_back(Ipv4Addr{domain.prefix.address().bits() | 0xFFFFu});
  }
  if (internet.vnbone().anycast_group().valid()) {
    probes.push_back(
        internet.anycast().group(internet.vnbone().anycast_group()).address);
  }
  sim::Rng rng{sim::derive_seed(options.probe_seed, 0xF1B)};
  for (std::uint32_t i = 0; i < options.random_addresses; ++i) {
    probes.push_back(Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())});
  }

  for (const auto& router : topo.routers()) {
    const auto& fib = network.fib(router.id);
    const auto& compiled = network.compiled_fib(router.id);
    if (compiled.epoch() != fib.epoch()) {
      out.push_back({OracleKind::kFibEquivalence, 0,
                     "router " + node_str(router.id) +
                         ": compiled epoch lags the trie after refresh"});
      continue;
    }
    for (const Ipv4Addr addr : probes) {
      const auto* truth = fib.lookup(addr);
      const auto* fast = compiled.lookup(addr);
      const bool same = (truth == nullptr && fast == nullptr) ||
                        (truth != nullptr && fast != nullptr && *truth == *fast);
      if (!same) {
        out.push_back({OracleKind::kFibEquivalence, 0,
                       "router " + node_str(router.id) + " addr " +
                           std::to_string(addr.bits()) +
                           ": trie and compiled LPM disagree"});
        break;  // one differential failure per router is enough signal
      }
    }
  }
}

/// ---- Gao-Rexford policy compliance --------------------------------------

void check_gao_rexford(const EvolvableInternet& internet,
                       std::vector<Violation>& out) {
  const auto& topo = internet.topology();
  const auto& bgp = internet.bgp();
  for (const auto& domain : topo.domains()) {
    for (const NodeId speaker : bgp.speakers_of(domain.id)) {
      bgp.for_each_best_route(speaker, [&](const bgp::Route& route) {
        const auto fail = [&](const std::string& why) {
          out.push_back({OracleKind::kGaoRexford, 0,
                         "speaker " + node_str(speaker) + " route " +
                             route.describe() + ": " + why});
        };
        if (route.local_pref != bgp::local_pref_for(route.learned)) {
          fail("local-pref inconsistent with learned-from class");
          return;
        }
        if (route.learned == bgp::LearnedFrom::kSelf) return;
        // Full forwarding path: this domain, then the received AS path.
        std::vector<DomainId> path;
        path.push_back(domain.id);
        path.insert(path.end(), route.as_path.begin(), route.as_path.end());
        std::set<std::uint32_t> seen;
        for (const DomainId d : path) {
          if (!seen.insert(d.value()).second) {
            fail("AS path contains a loop");
            return;
          }
        }
        // Valley-free walk: climb provider links, cross at most one
        // peering, then only descend to customers.
        bool descending = false;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const auto rel = topo.relationship(path[i], path[i + 1]);
          if (!rel.has_value()) {
            fail("adjacent AS-path domains have no peering");
            return;
          }
          if (descending && *rel != Relationship::kCustomer) {
            fail("valley: path climbs or crosses after descending");
            return;
          }
          if (*rel != Relationship::kProvider) descending = true;
        }
        // The first hop's relationship must match the learned-from class.
        if (!route.as_path.empty()) {
          const auto rel = topo.relationship(domain.id, route.as_path.front());
          const auto expect = route.learned == bgp::LearnedFrom::kCustomer
                                  ? Relationship::kCustomer
                              : route.learned == bgp::LearnedFrom::kPeer
                                  ? Relationship::kPeer
                                  : Relationship::kProvider;
          if (rel.has_value() && *rel != expect) {
            fail("learned-from class contradicts the neighbor relationship");
          }
        }
      });
    }
  }
}

/// ---- vN-Bone connectivity ------------------------------------------------

void check_vnbone(const EvolvableInternet& internet, bool healthy,
                  std::vector<Violation>& out) {
  const auto& vnbone = internet.vnbone();
  if (!vnbone.anycast_group().valid()) return;
  const auto& topo = internet.topology();
  const auto active = vnbone.active_members();
  const std::set<NodeId> active_set(active.begin(), active.end());

  for (const auto& link : vnbone.virtual_links()) {
    if (!active_set.contains(link.a) || !active_set.contains(link.b)) {
      out.push_back({OracleKind::kVnBoneConnectivity, 0,
                     "virtual link " + node_str(link.a) + "-" + node_str(link.b) +
                         " has a dead or undeployed endpoint"});
    }
  }
  if (active.size() < 2) return;

  const auto virt = net::connected_components(vnbone.virtual_graph());
  std::vector<NodeId> default_members;
  for (const NodeId m : active) {
    if (topo.router(m).domain == vnbone.default_domain()) {
      default_members.push_back(m);
    }
  }

  if (healthy && !default_members.empty()) {
    // §3.3.1: every component must stay connected to the default
    // provider. At full health the underlay is connected and the anycast
    // bootstrap works, so the bone must form one component.
    const NodeId anchor = default_members.front();
    for (const NodeId m : active) {
      if (virt.label[m.value()] != virt.label[anchor.value()]) {
        out.push_back({OracleKind::kVnBoneConnectivity, 0,
                       "member " + node_str(m) +
                           " is virtually partitioned from the default domain "
                           "at full health"});
      }
    }
    return;
  }

  // Under failures: intra-domain partition repair must still hold where
  // member discovery works — two live members of one domain that the
  // usable intra-domain graph connects must share a bone component.
  for (const auto& domain : topo.domains()) {
    const auto* igp = internet.igp(domain.id);
    if (igp == nullptr || !igp->supports_member_discovery()) continue;
    std::vector<NodeId> members;
    for (const NodeId r : domain.routers) {
      if (active_set.contains(r)) members.push_back(r);
    }
    if (members.size() < 2) continue;
    const auto intra = net::connected_components(topo.domain_graph(domain.id));
    const NodeId anchor = members.front();
    for (std::size_t i = 1; i < members.size(); ++i) {
      const NodeId m = members[i];
      if (intra.label[m.value()] != intra.label[anchor.value()]) continue;
      if (virt.label[m.value()] != virt.label[anchor.value()]) {
        out.push_back({OracleKind::kVnBoneConnectivity, 0,
                       "members " + node_str(anchor) + " and " + node_str(m) +
                           " of domain " + std::to_string(domain.id.value()) +
                           " are intra-connected in the underlay but "
                           "partitioned in the bone"});
      }
    }
  }
}

/// ---- vN-Bone routing: compiled vs. recomputed ----------------------------

void check_vn_routes(const EvolvableInternet& internet,
                     std::vector<Violation>& out) {
  const auto& bone = internet.vnbone();
  if (!bone.anycast_group().valid()) return;
  const auto& topo = internet.topology();
  const auto active = bone.active_members();
  if (active.empty()) return;

  // Per sampled domain (up to 16, spread over the domain list): a native
  // destination homed at its last router and a self-addressed one at its
  // first router's loopback. Native routing ignores the egress mode.
  constexpr std::size_t kDomains = 16;
  const auto& domains = topo.domains();
  const std::size_t sampled = std::min(kDomains, domains.size());
  std::vector<std::pair<net::IpvNAddr, std::vector<vnbone::EgressMode>>> dsts;
  for (std::size_t i = 0; i < sampled; ++i) {
    const auto& domain = domains[i * domains.size() / sampled];
    if (domain.routers.empty()) continue;
    dsts.push_back({net::IpvNAddr::native(bone.config().version, domain.id.value(),
                                          domain.routers.back().value(), 0),
                    {bone.config().egress_mode}});
    dsts.push_back({net::IpvNAddr::self(bone.config().version,
                                        topo.router(domain.routers.front()).loopback),
                    {vnbone::EgressMode::kExitAtIngress,
                     vnbone::EgressMode::kOwnPathKnowledge,
                     vnbone::EgressMode::kProxyAdvertising,
                     vnbone::EgressMode::kEndhostAdvertised}});
  }
  // Two ingresses, the first and the middle active member, one reference
  // tree each: the check runs at every quiescent point of every fuzz seed.
  constexpr std::size_t kIngresses = 2;
  const std::size_t ingresses = std::min(kIngresses, active.size());
  const VnBoneSnapshot snapshot(internet, bone);
  for (std::size_t i = 0; i < ingresses; ++i) {
    const NodeId ingress = active[i * active.size() / ingresses];
    const auto tree = net::dijkstra(snapshot.virtual_graph, ingress);
    for (const auto& [dst, modes] : dsts) {
      for (const auto mode : modes) {
        const auto fast = bone.route(ingress, dst, mode);
        const auto slow = reference_vn_route(snapshot, tree, ingress, dst, mode);
        if (fast == slow) continue;
        out.push_back({OracleKind::kVnRouteEquivalence, 0,
                       "ingress " + node_str(ingress) + " under " +
                           vnbone::to_string(mode) + ": route() egress " +
                           node_str(fast.egress) + " cost " +
                           std::to_string(fast.vn_cost) + ", reference egress " +
                           node_str(slow.egress) + " cost " +
                           std::to_string(slow.vn_cost)});
        return;  // one differential failure is enough signal
      }
    }
  }
}

/// ---- anycast state proportionality --------------------------------------

void check_state_bound(const EvolvableInternet& internet,
                       std::vector<Violation>& out) {
  const auto& topo = internet.topology();
  const auto groups = internet.anycast().group_count();
  for (const auto& domain : topo.domains()) {
    for (const NodeId speaker : internet.bgp().speakers_of(domain.id)) {
      const auto anycast_routes =
          internet.bgp().loc_rib_size(speaker, /*anycast_only=*/true);
      if (anycast_routes > groups) {
        out.push_back({OracleKind::kAnycastStateBound, 0,
                       "speaker " + node_str(speaker) + " holds " +
                           std::to_string(anycast_routes) +
                           " anycast routes for " + std::to_string(groups) +
                           " groups"});
      }
    }
  }
  for (const auto& router : topo.routers()) {
    const auto anycast_fib =
        internet.network().fib(router.id).size_with_origin(net::RouteOrigin::kAnycast);
    if (anycast_fib > groups) {
      out.push_back({OracleKind::kAnycastStateBound, 0,
                     "router " + node_str(router.id) + " carries " +
                         std::to_string(anycast_fib) +
                         " anycast FIB entries for " + std::to_string(groups) +
                         " groups"});
    }
  }
}

}  // namespace

VnBoneSnapshot::VnBoneSnapshot(const EvolvableInternet& internet,
                               const vnbone::VnBone& bone)
    : internet(internet), bone(bone), virtual_graph(bone.virtual_graph()) {
  const auto& topo = internet.topology();
  for (const NodeId r : bone.deployed_routers()) {
    if (topo.router(r).up) active_by_domain[topo.router(r).domain].push_back(r);
  }
}

vnbone::VnBone::VnRoute reference_vn_route(const VnBoneSnapshot& snapshot,
                                           const net::ShortestPaths& tree,
                                           NodeId ingress, net::IpvNAddr dst,
                                           vnbone::EgressMode mode) {
  using vnbone::EgressMode;
  const auto& internet = snapshot.internet;
  const auto& bone = snapshot.bone;
  const auto& active_by_domain = snapshot.active_by_domain;
  const auto& topo = internet.topology();
  vnbone::VnBone::VnRoute result;
  auto active = [&](NodeId r) { return bone.deployed(r) && topo.router(r).up; };
  if (!active(ingress)) return result;
  // The shortest BGPv(N-1) AS path among `domain`'s borders (first border
  // wins ties); null when none has a route.
  auto legacy_best = [&](DomainId domain, DomainId target) -> const bgp::Route* {
    const bgp::Route* best = nullptr;
    for (const NodeId b : internet.bgp().speakers_of(domain)) {
      const bgp::Route* route =
          internet.bgp().best_route(b, net::Topology::domain_prefix(target));
      if (route != nullptr &&
          (best == nullptr || route->as_path.size() < best->as_path.size())) {
        best = route;
      }
    }
    return best;
  };

  auto finish_at = [&](NodeId egress, bool legacy) {
    if (egress != ingress && !tree.reachable(egress)) return;
    result.ok = true;
    result.egress = egress;
    result.exits_to_legacy = legacy;
    if (egress == ingress) {
      result.vn_hops = {ingress};
      result.vn_cost = 0;
    } else {
      result.vn_hops = tree.path_to(egress);
      result.vn_cost = tree.distance_to(egress);
    }
  };
  // Linear scan for the active member of `domain` minimizing `cost`.
  auto closest = [&](DomainId domain, auto cost) {
    NodeId best = NodeId::invalid();
    Cost best_d = kInfiniteCost;
    const auto members = active_by_domain.find(domain);
    if (members == active_by_domain.end()) return std::make_pair(best, best_d);
    for (const NodeId r : members->second) {
      const Cost d = cost(r);
      if (d < best_d || (d == best_d && r < best)) {
        best = r;
        best_d = d;
      }
    }
    return std::make_pair(best, best_d);
  };
  auto vn_cost_to = [&](NodeId r) {
    return r == ingress ? Cost{0} : tree.distance_to(r);
  };

  if (!dst.is_self_address()) {
    const NodeId home{dst.native_node()};
    const DomainId home_domain{dst.native_domain()};
    if (home.value() >= topo.router_count() ||
        home_domain.value() >= topo.domain_count()) {
      return result;
    }
    if (active(home)) {
      finish_at(home, /*legacy=*/false);
      return result;
    }
    const igp::Igp* igp = internet.igp(home_domain);
    const auto [egress, egress_d] = closest(home_domain, [&](NodeId r) {
      return igp ? igp->distance(r, home) : kInfiniteCost;
    });
    if (egress.valid() && egress_d != kInfiniteCost) finish_at(egress, true);
    return result;
  }

  const auto target_domain = topo.domain_of_address(dst.embedded_v4());
  if (!target_domain) return result;
  switch (mode) {
    case EgressMode::kExitAtIngress:
      finish_at(ingress, /*legacy=*/true);
      return result;
    case EgressMode::kOwnPathKnowledge: {
      const DomainId my_domain = topo.router(ingress).domain;
      if (*target_domain == my_domain) {
        finish_at(ingress, /*legacy=*/true);
        return result;
      }
      const bgp::Route* own = legacy_best(my_domain, *target_domain);
      DomainId chosen = DomainId::invalid();
      if (own != nullptr) {
        for (auto it = own->as_path.rbegin(); it != own->as_path.rend(); ++it) {
          if (active_by_domain.contains(*it)) {
            chosen = *it;
            break;
          }
        }
      }
      if (!chosen.valid()) {
        finish_at(ingress, /*legacy=*/true);
        return result;
      }
      const auto [egress, egress_d] = closest(chosen, vn_cost_to);
      finish_at(egress.valid() && egress_d != kInfiniteCost ? egress : ingress,
                /*legacy=*/true);
      return result;
    }
    case EgressMode::kEndhostAdvertised: {
      const auto advertiser = bone.endhost_route(dst);
      if (!advertiser || !active(*advertiser)) return result;
      finish_at(*advertiser, /*legacy=*/true);
      return result;
    }
    case EgressMode::kProxyAdvertising: {
      NodeId egress = NodeId::invalid();
      Cost best_score = kInfiniteCost;
      for (const auto& [d, members] : active_by_domain) {
        Cost legacy_len = 0;
        if (d != *target_domain) {
          const bgp::Route* best = legacy_best(d, *target_domain);
          if (best == nullptr) continue;
          legacy_len = best->as_path.size();
        }
        for (const NodeId r : members) {
          const Cost vn_d = vn_cost_to(r);
          if (vn_d == kInfiniteCost) continue;
          const Cost score = vn_d + vnbone::kAsHopWeight * legacy_len;
          if (score < best_score || (score == best_score && r < egress)) {
            egress = r;
            best_score = score;
          }
        }
      }
      finish_at(egress.valid() ? egress : ingress, /*legacy=*/true);
      return result;
    }
  }
  return result;
}

const char* to_string(OracleKind oracle) {
  switch (oracle) {
    case OracleKind::kLoopFreedom: return "loop-freedom";
    case OracleKind::kNoBlackhole: return "no-blackhole";
    case OracleKind::kMemberDelivery: return "member-delivery";
    case OracleKind::kIntraDomainClosest: return "intra-domain-closest";
    case OracleKind::kIgpGroundTruth: return "igp-ground-truth";
    case OracleKind::kFibEquivalence: return "fib-equivalence";
    case OracleKind::kGaoRexford: return "gao-rexford";
    case OracleKind::kVnBoneConnectivity: return "vnbone-connectivity";
    case OracleKind::kAnycastStateBound: return "anycast-state-bound";
    case OracleKind::kConvergenceBudget: return "convergence-budget";
    case OracleKind::kVnRouteEquivalence: return "vn-route-equivalence";
  }
  return "?";
}

std::string Violation::describe() const {
  return std::string(to_string(oracle)) + " @episode " + std::to_string(episode) +
         ": " + detail;
}

std::vector<Violation> check_invariants(const EvolvableInternet& internet,
                                        const OracleOptions& options) {
  std::vector<Violation> out;
  const bool healthy = full_health(internet.topology());
  check_igp_and_intradomain(internet, out);
  check_interdomain_unicast(internet, healthy, options, out);
  check_anycast(internet, healthy, out);
  check_fib_equivalence(internet, options, out);
  check_gao_rexford(internet, out);
  check_vnbone(internet, healthy, out);
  check_vn_routes(internet, out);
  check_state_bound(internet, out);
  return out;
}

}  // namespace evo::check
