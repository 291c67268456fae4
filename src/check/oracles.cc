#include "check/oracles.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
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

/// Random addresses added to the FIB-differential probe set.
constexpr std::uint32_t kRandomAddresses = 16;
/// Cross-domain unicast (source, destination) pairs traced.
constexpr std::uint32_t kInterdomainPairs = 64;

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
    const igp::Igp& igp = *internet.igp(domain.id);
    const Graph g = topo.domain_graph(domain.id);
    for (const NodeId u : domain.routers) {
      if (!topo.router(u).up) continue;
      const auto truth = net::dijkstra(g, u);
      for (const NodeId v : domain.routers) {
        if (u == v || !topo.router(v).up) continue;
        const Cost expect = truth.distance_to(v);
        const Cost got = igp.distance(u, v);
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
        } else if (trace.delivered() && trace.cost != expect) {
          // The FIB must use the links the distance was computed over.
          out.push_back({OracleKind::kIgpGroundTruth, 0,
                         "domain " + std::to_string(domain.id.value()) + " " +
                             node_str(u) + "->" + node_str(v) + ": trace costs " +
                             std::to_string(trace.cost) + ", dijkstra says " +
                             std::to_string(expect)});
        }
      }
    }
  }
}

/// ---- leg cache -----------------------------------------------------------

/// The fresh `traces` of `probes` against one batch of the leg cache, each
/// probe twice: its first trace hits a leg kept at an earlier check under
/// an unmoved stamp or walks, and its second must hit. One result buffer
/// serves every probe. At most one violation.
void check_leg_cache(const net::Network& network,
                     std::span<const net::Network::ProbeSpec> probes,
                     std::span<const net::Network::TraceResult> traces,
                     std::vector<Violation>& out) {
  const net::Network::Batch batch = network.begin_batch();
  net::Network::TraceResult got;
  for (const char* pass : {"first", "repeat"}) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      batch.trace_into(probes[i].from, probes[i].dst, probes[i].max_hops, got);
      if (got == traces[i]) continue;
      out.push_back({OracleKind::kLegCacheEquivalence, 0,
                     "probe " + node_str(probes[i].from) + "->" +
                         probes[i].dst.to_string() + " (" + pass + "): batch gives " +
                         network.describe(got) + ", trace gives " +
                         network.describe(traces[i])});
      return;
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
  std::vector<net::Network::ProbeSpec> probes;
  std::vector<net::Network::TraceResult> traces;
  for (std::uint32_t i = 0; i < kInterdomainPairs; ++i) {
    const NodeId u{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId v{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (u == v || topo.router(u).domain == topo.router(v).domain) continue;
    if (!topo.router(u).up || !topo.router(v).up) continue;
    probes.push_back({.from = u, .dst = topo.router(v).loopback});
    const auto& trace = traces.emplace_back(network.trace(u, probes.back().dst));
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
  check_leg_cache(network, probes, traces, out);
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
  // Per router, the intra-domain distance to the closest live member of its
  // own domain: one multi-source search per member domain (links are
  // undirected, so the distance from the nearest member is the distance to
  // it).
  std::vector<Cost> local_closest(topo.router_count(), kInfiniteCost);
  std::vector<NodeId> local_members;
  for (const auto& domain : topo.domains()) {
    local_members.clear();
    for (const NodeId m : active) {
      if (topo.router(m).domain == domain.id) local_members.push_back(m);
    }
    if (local_members.empty()) continue;
    const auto intra = net::dijkstra(topo.domain_graph(domain.id),
                                     std::span<const NodeId>(local_members));
    for (const NodeId r : domain.routers) local_closest[r.value()] = intra.distance_to(r);
  }

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
    const Cost best = local_closest[s.value()];
    if (best == kInfiniteCost) continue;  // no member, or intra-partitioned from all
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

bool same_entry(const net::FibEntry* a, const net::FibEntry* b) {
  return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}

void check_fibs(const EvolvableInternet& internet, const OracleOptions& options,
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
  for (std::uint32_t i = 0; i < kRandomAddresses; ++i) {
    probes.push_back(Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())});
  }
  std::sort(probes.begin(), probes.end());

  for (const auto& router : topo.routers()) {
    const auto found = check_fib_equivalence(router.id, network.fib(router.id),
                                             network.compiled_fib(router.id), probes);
    out.insert(out.end(), found.begin(), found.end());
  }
}

/// ---- BGP install: delta vs. full pass ------------------------------------

std::string entry_str(const net::FibEntry* entry) {
  if (entry == nullptr) return "none";
  return "via " + node_str(entry->next_hop) + " link " +
         std::to_string(entry->out_link.value()) + " metric " +
         std::to_string(entry->metric);
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
        const auto& path = route.as_path;
        for (std::size_t i = 0; i < path.size(); ++i) {
          if (path[i] == domain.id ||
              std::find(path.begin(), path.begin() + i, path[i]) != path.begin() + i) {
            fail("AS path contains a loop");
            return;
          }
        }
        // Valley-free walk: climb provider links, cross at most one
        // peering, then only descend to customers.
        bool descending = false;
        for (std::size_t i = 0; i < path.size(); ++i) {
          const auto rel = topo.relationship(i == 0 ? domain.id : path[i - 1], path[i]);
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
    if (!internet.igp(domain.id)->supports_member_discovery()) continue;
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
  std::vector<std::pair<net::IpvNAddr, vnbone::EgressMode>> queries;
  for (std::size_t i = 0; i < sampled; ++i) {
    const auto& domain = domains[i * domains.size() / sampled];
    if (domain.routers.empty()) continue;
    queries.push_back({net::IpvNAddr::native(bone.config().version, domain.id.value(),
                                             domain.routers.back().value(), 0),
                       bone.config().egress_mode});
    const auto self = net::IpvNAddr::self(bone.config().version,
                                          topo.router(domain.routers.front()).loopback);
    for (const auto mode : {vnbone::EgressMode::kExitAtIngress,
                            vnbone::EgressMode::kOwnPathKnowledge,
                            vnbone::EgressMode::kProxyAdvertising,
                            vnbone::EgressMode::kEndhostAdvertised}) {
      queries.push_back({self, mode});
    }
  }
  // Two ingresses, the first and the middle active member, one reference
  // tree each: the check runs at every quiescent point of every fuzz seed.
  // route() settles a tree only as far as a query reads, so the second
  // ingress takes the queries in reverse order, deep ones early.
  constexpr std::size_t kIngresses = 2;
  const std::size_t ingresses = std::min(kIngresses, active.size());
  const VnBoneSnapshot snapshot(internet, bone);
  for (std::size_t i = 0; i < ingresses; ++i) {
    const NodeId ingress = active[i * active.size() / ingresses];
    const auto tree = net::dijkstra(snapshot.virtual_graph, ingress);
    if (i == 1) std::reverse(queries.begin(), queries.end());
    for (const auto& [dst, mode] : queries) {
      const auto slow = reference_vn_route(snapshot, tree, ingress, dst, mode);
      // A proxy query's first answer fills route()'s egress memo (unless an
      // earlier query did) and its second reads it.
      const int answers = mode == vnbone::EgressMode::kProxyAdvertising ? 2 : 1;
      for (int answer = 0; answer < answers; ++answer) {
        const auto fast = bone.route(ingress, dst, mode);
        if (fast == slow) continue;
        out.push_back({OracleKind::kVnRouteEquivalence, 0,
                       "ingress " + node_str(ingress) + " under " +
                           vnbone::to_string(mode) + (answer > 0 ? " (repeated)" : "") +
                           ": route() egress " + node_str(fast.egress) + " cost " +
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
    const igp::Igp& igp = *internet.igp(home_domain);
    const auto [egress, egress_d] =
        closest(home_domain, [&](NodeId r) { return igp.distance(r, home); });
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
    case OracleKind::kInstallEquivalence: return "install-equivalence";
    case OracleKind::kVnBoneRebuildEquivalence: return "vnbone-rebuild-equivalence";
    case OracleKind::kRibConsistency: return "rib-consistency";
    case OracleKind::kLegCacheEquivalence: return "leg-cache-equivalence";
  }
  return "?";
}

std::string Violation::describe() const {
  return std::string(to_string(oracle)) + " @episode " + std::to_string(episode) +
         ": " + detail;
}

std::vector<Violation> check_install_equivalence(const net::Network& network,
                                                 const bgp::BgpSystem& bgp) {
  std::vector<Violation> out;
  bgp.full_install_pass([&](NodeId r, std::span<const bgp::InstallWant> wants) {
    std::size_t expected = 0;
    for (const auto& [prefix, want, existing] : wants) {
      const net::FibEntry* have =
          existing != nullptr && existing->origin == net::RouteOrigin::kBgp ? existing
                                                                            : nullptr;
      expected += want.has_value();
      if (want ? have != nullptr && *have == *want : have == nullptr) continue;
      out.push_back({OracleKind::kInstallEquivalence, 0,
                     "router " + node_str(r) + " prefix " + prefix.to_string() +
                         ": installed " + entry_str(have) + ", full pass gives " +
                         entry_str(want ? &*want : nullptr)});
      return false;  // one differential failure is enough signal
    }
    if (network.fib(r).size_with_origin(net::RouteOrigin::kBgp) != expected) {
      out.push_back({OracleKind::kInstallEquivalence, 0,
                     "router " + node_str(r) +
                         ": a BGP entry for a prefix no border of its domain holds"});
      return false;
    }
    return true;
  });
  return out;
}

std::vector<Violation> check_fib_equivalence(NodeId router, const net::Fib& fib,
                                             const net::CompiledFib& compiled,
                                             std::span<const Ipv4Addr> probes) {
  const auto fail = [&](const std::string& why) {
    return std::vector<Violation>{
        {OracleKind::kFibEquivalence, 0, "router " + node_str(router) + why}};
  };
  if (compiled.epoch() != fib.epoch()) {
    return fail(": compiled epoch lags the Fib after refresh");
  }
  std::size_t pieces = 0;
  std::optional<std::uint32_t> disagrees;
  auto probe = probes.begin();
  for_each_lpm_piece(fib, [&](const LpmPiece& piece) {
    ++pieces;
    const auto agrees = [&](std::uint32_t addr) {
      if (same_entry(compiled.lookup(Ipv4Addr{addr}), piece.winner)) return true;
      disagrees = addr;
      return false;
    };
    if (!agrees(piece.first)) return false;
    for (; probe != probes.end() && probe->bits() <= piece.last; ++probe) {
      if (!agrees(probe->bits())) return false;
    }
    return agrees(piece.last);
  });
  if (disagrees) {
    return fail(" addr " + std::to_string(*disagrees) +
                ": Fib and compiled LPM disagree");
  }
  if (pieces != compiled.range_count()) {
    return fail(": compiled table has " + std::to_string(compiled.range_count()) +
                " ranges, the Fib's longest-prefix partition " +
                std::to_string(pieces) + " pieces");
  }
  return {};
}

std::vector<Violation> check_vnbone_rebuild_equivalence(const EvolvableInternet& internet,
                                                        const VnBoneBuild& built) {
  const auto want = reference_vnbone_build(internet, internet.vnbone());
  if (built == want) return {};
  auto link_str = [](const std::vector<vnbone::VirtualLink>& links, std::size_t i) {
    if (i >= links.size()) return std::string("none");
    const auto& l = links[i];
    return node_str(l.a) + "-" + node_str(l.b) + " cost " +
           std::to_string(l.underlay_cost) + (l.interdomain ? " inter " : " intra ") +
           vnbone::to_string(l.source);
  };
  std::size_t i = 0;
  while (i < built.links.size() && i < want.links.size() &&
         built.links[i] == want.links[i]) {
    ++i;
  }
  return {{OracleKind::kVnBoneRebuildEquivalence, 0,
           "link " + std::to_string(i) + ": rebuild gives " + link_str(built.links, i) +
               ", reference gives " + link_str(want.links, i) + "; repairs " +
               std::to_string(built.partition_repairs) + " vs " +
               std::to_string(want.partition_repairs) + ", bootstraps " +
               std::to_string(built.bootstrap_tunnels) + " vs " +
               std::to_string(want.bootstrap_tunnels)}};
}

std::vector<Violation> check_invariants(const EvolvableInternet& internet,
                                        const OracleOptions& options) {
  std::vector<Violation> out;
  const bool healthy = full_health(internet.topology());
  check_igp_and_intradomain(internet, out);
  check_interdomain_unicast(internet, healthy, options, out);
  check_anycast(internet, healthy, out);
  check_fibs(internet, options, out);
  check_gao_rexford(internet, out);
  check_vnbone(internet, healthy, out);
  check_vn_routes(internet, out);
  const auto& bone = internet.vnbone();
  const auto rebuilt = check_vnbone_rebuild_equivalence(
      internet, {bone.virtual_links(), bone.partition_repairs(), bone.bootstrap_tunnels()});
  out.insert(out.end(), rebuilt.begin(), rebuilt.end());
  check_state_bound(internet, out);
  const auto installs = check_install_equivalence(internet.network(), internet.bgp());
  out.insert(out.end(), installs.begin(), installs.end());
  if (auto why = internet.bgp().rib_inconsistency()) {
    out.push_back({OracleKind::kRibConsistency, 0, std::move(*why)});
  }
  return out;
}

}  // namespace evo::check
