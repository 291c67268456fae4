#include "vnbone/vnbone.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

namespace evo::vnbone {

using net::Cost;
using net::DomainId;
using net::Graph;
using net::GroupId;
using net::Ipv4Addr;
using net::IpvNAddr;
using net::NodeId;
using net::Prefix;

const char* to_string(EgressMode mode) {
  switch (mode) {
    case EgressMode::kExitAtIngress: return "exit-at-ingress";
    case EgressMode::kOwnPathKnowledge: return "own-path-knowledge";
    case EgressMode::kProxyAdvertising: return "proxy-advertising";
    case EgressMode::kEndhostAdvertised: return "endhost-advertised";
  }
  return "?";
}

const char* to_string(VirtualLink::Source source) {
  switch (source) {
    case VirtualLink::Source::kIntraK: return "intra-k";
    case VirtualLink::Source::kPartitionRepair: return "partition-repair";
    case VirtualLink::Source::kPeeringTunnel: return "peering-tunnel";
    case VirtualLink::Source::kAnycastBootstrap: return "anycast-bootstrap";
    case VirtualLink::Source::kManual: return "manual";
    case VirtualLink::Source::kCongruent: return "congruent";
  }
  return "?";
}

VnBone::VnBone(net::Network& network, bgp::BgpSystem* bgp,
               std::function<igp::Igp*(net::DomainId)> igp_of,
               anycast::AnycastService& anycast_service, VnBoneConfig config)
    : network_(network),
      bgp_(bgp),
      igp_of_(std::move(igp_of)),
      anycast_(anycast_service),
      config_(config) {}

Ipv4Addr VnBone::anycast_address() const {
  assert(group_.valid() && "no router deployed yet");
  return anycast_.group(group_).address;
}

void VnBone::ensure_group(DomainId first_domain) {
  if (group_.valid()) return;
  default_domain_ = first_domain;
  anycast::GroupConfig gc;
  gc.mode = config_.anycast_mode;
  gc.default_domain = first_domain;
  group_ = anycast_.create_group(gc);
}

void VnBone::deploy_router(NodeId router) {
  if (deployed(router)) return;
  if (deployed_flag_.size() <= router.value()) deployed_flag_.resize(router.value() + 1);
  deployed_flag_[router.value()] = true;
  ++deployed_count_;
  const DomainId domain = network_.topology().router(router).domain;
  if (members_by_domain_.size() <= domain.value()) {
    members_by_domain_.resize(domain.value() + 1);
  }
  auto& members = members_by_domain_[domain.value()];
  members.insert(std::lower_bound(members.begin(), members.end(), router), router);
  ensure_group(domain);
  anycast_.add_member(group_, router);
}

void VnBone::undeploy_router(NodeId router) {
  if (!deployed(router)) return;
  deployed_flag_[router.value()] = false;
  --deployed_count_;
  auto& members =
      members_by_domain_[network_.topology().router(router).domain.value()];
  members.erase(std::lower_bound(members.begin(), members.end(), router));
  anycast_.remove_member(group_, router);
}

void VnBone::deploy_domain(DomainId domain) {
  for (const NodeId r : network_.topology().domain(domain).routers) {
    deploy_router(r);
  }
}

std::vector<NodeId> VnBone::deployed_routers() const {
  std::vector<NodeId> out;
  out.reserve(deployed_count_);
  for (std::uint32_t r = 0; r < deployed_flag_.size(); ++r) {
    if (deployed_flag_[r]) out.push_back(NodeId{r});
  }
  return out;
}

const std::vector<NodeId>& VnBone::deployed_routers_in(DomainId domain) const {
  static const std::vector<NodeId> kNone;
  return domain.value() < members_by_domain_.size()
             ? members_by_domain_[domain.value()]
             : kNone;
}

std::vector<DomainId> VnBone::deployed_domains() const {
  std::vector<DomainId> out;
  for (std::uint32_t d = 0; d < members_by_domain_.size(); ++d) {
    if (!members_by_domain_[d].empty()) out.push_back(DomainId{d});
  }
  return out;
}

bool VnBone::active(NodeId router) const {
  return deployed(router) && network_.topology().router(router).up;
}

bool VnBone::domain_active(DomainId domain) const {
  const auto& members = deployed_routers_in(domain);
  return std::any_of(members.begin(), members.end(),
                     [&](NodeId r) { return network_.topology().router(r).up; });
}

std::vector<NodeId> VnBone::active_members() const {
  std::vector<NodeId> out;
  for (const NodeId r : deployed_routers()) {
    if (active(r)) out.push_back(r);
  }
  return out;
}

std::vector<NodeId> VnBone::active_routers_in(DomainId domain) const {
  std::vector<NodeId> out;
  for (const NodeId r : deployed_routers_in(domain)) {
    if (active(r)) out.push_back(r);
  }
  return out;
}

template <typename CostFn>
std::pair<NodeId, Cost> VnBone::closest_active(DomainId domain, CostFn cost) const {
  NodeId best = NodeId::invalid();
  Cost best_d = net::kInfiniteCost;
  for (const NodeId r : deployed_routers_in(domain)) {
    if (!network_.topology().router(r).up) continue;
    const Cost d = cost(r);
    if (d < best_d || (d == best_d && r < best)) {
      best = r;
      best_d = d;
    }
  }
  return {best, best_d};
}

void VnBone::add_manual_tunnel(NodeId a, NodeId b) {
  assert(a != b);
  manual_tunnels_.insert({std::min(a, b), std::max(a, b)});
}

void VnBone::remove_manual_tunnel(NodeId a, NodeId b) {
  manual_tunnels_.erase({std::min(a, b), std::max(a, b)});
}

void VnBone::rebuild() {
  obs::SpanId span;
  if (recorder_ != nullptr) {
    span = recorder_->open_span(obs::Domain::kVnBone, "vnbone.rebuild",
                                deployed_count_);
  }
  std::vector<VirtualLink> previous;
  previous.swap(links_);
  build_links();
  // The compiled bone and route()'s trees depend on the links alone.
  if (links_ != previous) compile_bone();
  if (recorder_ != nullptr) {
    if (deployed_count_ == 0) {
      recorder_->close_span(span);
    } else {
      recorder_->close_span(span, links_.size(),
                            (std::uint64_t{partition_repairs_} << 32) |
                                static_cast<std::uint32_t>(bootstrap_tunnels_));
    }
  }
}

namespace {

/// Union-find over routers, by size with path halving. Each root keeps the
/// lowest router id of its set: the order in which
/// net::connected_components numbers components.
class Components {
 public:
  explicit Components(std::size_t routers)
      : parent_(routers), size_(routers, 1), lowest_(routers) {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::iota(lowest_.begin(), lowest_.end(), 0u);
  }

  std::uint32_t root(NodeId router) {
    std::uint32_t at = router.value();
    while (parent_[at] != at) at = parent_[at] = parent_[parent_[at]];
    return at;
  }
  /// The lowest router id in `router`'s component.
  std::uint32_t lowest(NodeId router) { return lowest_[root(router)]; }

  void unite(NodeId a, NodeId b) {
    std::uint32_t ra = root(a);
    std::uint32_t rb = root(b);
    if (ra == rb) return;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    lowest_[ra] = std::min(lowest_[ra], lowest_[rb]);
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> lowest_;
};

/// The router nearest `source` in `graph` for which `wanted` holds, ties
/// to the lowest NodeId, with its distance; invalid when none is reachable.
/// Dijkstra pops routers by nondecreasing distance, so it stops once the
/// popped distance exceeds the best found: a router at that distance with
/// a lower id is still popped first, and no farther router is settled.
template <typename Wanted>
std::pair<NodeId, Cost> nearest(const Graph& graph, NodeId source, Wanted wanted) {
  std::vector<Cost> distance(graph.size(), net::kInfiniteCost);
  using Entry = std::pair<Cost, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  NodeId best = NodeId::invalid();
  Cost best_d = net::kInfiniteCost;
  distance[source.value()] = 0;
  heap.push({0, source.value()});
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > best_d) break;
    if (dist > distance[u]) continue;  // stale entry
    const NodeId node{u};
    if (wanted(node) && (dist < best_d || (dist == best_d && node < best))) {
      best = node;
      best_d = dist;
    }
    for (const auto& edge : graph.neighbors(node)) {
      const Cost next = dist + edge.cost;
      if (next < distance[edge.to.value()]) {
        distance[edge.to.value()] = next;
        heap.push({next, edge.to.value()});
      }
    }
  }
  return {best, best_d};
}

}  // namespace

void VnBone::build_links() {
  links_.clear();
  partition_repairs_ = 0;
  bootstrap_tunnels_ = 0;
  if (deployed_count_ == 0) return;

  const auto& topo = network_.topology();
  const auto domains = deployed_domains();
  std::optional<Graph> physical;  // built on first use
  auto physical_graph = [&]() -> const Graph& {
    if (!physical) physical = topo.physical_graph();
    return *physical;
  };

  // Dedup helper: canonical (low, high) pairs already linked. The
  // components of the non-interdomain links drive partition repair.
  std::set<std::pair<std::uint32_t, std::uint32_t>> have;
  Components intra(topo.router_count());
  auto add_link = [&](NodeId a, NodeId b, Cost cost, bool interdomain,
                      VirtualLink::Source source) {
    const std::uint32_t lo = std::min(a.value(), b.value());
    const std::uint32_t hi = std::max(a.value(), b.value());
    if (!have.insert({lo, hi}).second) return;
    links_.push_back(VirtualLink{a, b, cost, interdomain, source});
    if (!interdomain) intra.unite(a, b);
  };

  // ---- operator-configured (manual) tunnels -----------------------------
  // Added first: explicit configuration takes precedence over (and is not
  // absorbed by) the automatic rules.
  for (const auto& [a, b] : manual_tunnels_) {
    if (!active(a) || !active(b)) continue;  // dormant until both deploy & up
    const auto paths = net::dijkstra(physical_graph(), a);
    if (!paths.reachable(b)) continue;
    const bool interdomain = topo.router(a).domain != topo.router(b).domain;
    add_link(a, b, paths.distance_to(b), interdomain,
             VirtualLink::Source::kManual);
  }

  // ---- congruence evolution: adopt physical links between members ------
  if (config_.congruent_evolution) {
    for (const auto& link : topo.links()) {
      if (link.interdomain || !topo.link_usable(link.id)) continue;
      if (active(link.a) && active(link.b)) {
        add_link(link.a, link.b, link.cost, false,
                 VirtualLink::Source::kCongruent);
      }
    }
  }

  // ---- intra-domain: k closest neighbors, then partition repair --------
  for (const DomainId domain : domains) {
    const auto members = active_routers_in(domain);
    igp::Igp* igp = igp_of_(domain);
    if (members.size() < 2 || igp == nullptr) continue;

    auto dist = [&](NodeId a, NodeId b) { return igp->distance(a, b); };

    if (config_.respect_discovery_limits && !igp->supports_member_discovery()) {
      // Footnote-3 fallback: no member enumeration, so no k-closest rule.
      // Each member (in join order) anycasts to find its nearest existing
      // member and tunnels to it — a connected tree by construction.
      // (deployed_routers_in returns NodeId order == join-order model.)
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
          ++bootstrap_tunnels_;
        }
      }
      continue;
    }

    for (const NodeId r : members) {
      // Rank other members by (distance, id); take the k nearest.
      std::vector<std::pair<Cost, NodeId>> ranked;
      for (const NodeId m : members) {
        if (m == r) continue;
        const Cost d = dist(r, m);
        if (d == net::kInfiniteCost) continue;
        ranked.push_back({d, m});
      }
      std::sort(ranked.begin(), ranked.end());
      const std::size_t k = std::min<std::size_t>(config_.k_neighbors, ranked.size());
      for (std::size_t i = 0; i < k; ++i) {
        add_link(r, ranked[i].second, ranked[i].first, false,
                 VirtualLink::Source::kIntraK);
      }
    }

    // Partition detection & repair: "such [partitions] can be easily
    // detected and repaired because every router has complete knowledge of
    // all other IPvN routers" (§3.3.1). Greedily connect components with
    // the cheapest available member pair (a, b), where a's component has
    // the lower lowest router id; ties go to the lowest (a, b).
    std::vector<std::uint32_t> label(members.size());
    while (true) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        label[i] = intra.lowest(members[i]);
      }
      if (std::all_of(label.begin(), label.end(),
                      [&](std::uint32_t l) { return l == label.front(); })) {
        break;
      }

      Cost best_cost = net::kInfiniteCost;
      NodeId best_a = NodeId::invalid();
      NodeId best_b = NodeId::invalid();
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = 0; j < members.size(); ++j) {
          if (label[i] >= label[j]) continue;
          const NodeId a = members[i];
          const NodeId b = members[j];
          const Cost d = dist(a, b);
          if (d < best_cost || (d == best_cost && (a < best_a || (a == best_a && b < best_b)))) {
            best_cost = d;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (!best_a.valid() || best_cost == net::kInfiniteCost) break;  // physically split
      add_link(best_a, best_b, best_cost, false,
               VirtualLink::Source::kPartitionRepair);
      ++partition_repairs_;
    }
  }

  // ---- inter-domain: tunnels along peerings ------------------------------
  for (const DomainId da : domains) {
    for (const auto& peering : topo.domain(da).peerings) {
      const DomainId db = peering.neighbor;
      if (da >= db) continue;  // each pair once (peerings are symmetric)
      if (!domain_active(db)) continue;
      const auto& link = topo.link(peering.link);
      if (!topo.link_usable(peering.link)) continue;
      // Tunnel endpoints: each side's IPvN router closest (by IGP) to its
      // end of the physical peering link.
      const NodeId end_a =
          topo.router(link.a).domain == da ? link.a : link.b;
      const NodeId end_b = link.other_end(end_a);
      auto closest_member = [&](DomainId domain, NodeId to) {
        igp::Igp* igp = igp_of_(domain);
        return closest_active(domain, [&](NodeId m) {
          return (m == to) ? 0 : (igp ? igp->distance(m, to) : net::kInfiniteCost);
        });
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
  // "a newly joined ISP could reuse the anycast mechanism as the initial
  // bootstrap"; "every domain [should] ensure that it is connected ... to
  // the 'default' provider of the anycast address" (§3.3.1).
  // The default component holds the default domain's first active router
  // (the default domain always has one deployed: it deployed first).
  const auto default_members = active_routers_in(default_domain_);
  if (default_members.empty()) return;  // default fully dark: no anchor
  const NodeId anchor = default_members.front();
  Components bone(topo.router_count());
  for (const auto& l : links_) bone.unite(l.a, l.b);
  // Routers proven physically unreachable from every other component stay
  // stranded; skipping their whole component keeps the loop repairing
  // everyone else.
  std::vector<bool> hopeless(topo.router_count(), false);
  const auto members = active_members();
  // Components only merge and hopeless marks only grow, so a member passed
  // over once (anchored or hopeless) is never stranded again.
  for (std::size_t next = 0; next < members.size();) {
    // The stranded active router with the lowest id.
    const NodeId stranded = members[next];
    if (bone.root(stranded) == bone.root(anchor) || hopeless[stranded.value()]) {
      ++next;
      continue;
    }

    // Bootstrap: the stranded router reaches the nearest *foreign-
    // component* IPvN router through the anycast mechanism (modeled as the
    // closest member by unicast distance — valid because the stranded ISP
    // is not yet advertising the anycast route itself, per the paper's
    // footnote).
    const auto [target, target_d] = nearest(physical_graph(), stranded, [&](NodeId r) {
      return active(r) && bone.root(r) != bone.root(stranded);
    });
    if (!target.valid()) {
      // Physically cut off; no overlay can help. Mark the whole component
      // hopeless and keep repairing the rest.
      for (const NodeId r : members) {
        if (bone.root(r) == bone.root(stranded)) hopeless[r.value()] = true;
      }
      continue;
    }
    add_link(stranded, target, target_d, true,
             VirtualLink::Source::kAnycastBootstrap);
    bone.unite(stranded, target);
    ++bootstrap_tunnels_;
  }
}

void VnBone::compile_bone() {
  member_node_.clear();
  for (const auto& l : links_) {
    member_node_.push_back(l.a);
    member_node_.push_back(l.b);
  }
  std::sort(member_node_.begin(), member_node_.end());
  member_node_.erase(std::unique(member_node_.begin(), member_node_.end()),
                     member_node_.end());
  member_index_.assign(network_.topology().router_count(), kNoMember);
  for (std::uint32_t i = 0; i < member_node_.size(); ++i) {
    member_index_[member_node_[i].value()] = i;
  }

  // CSR: count degrees, then place each link's two directed edges in
  // links_ order, exactly as add_undirected_edge appends them.
  const std::size_t n = member_node_.size();
  edge_begin_.assign(n + 1, 0);
  for (const auto& l : links_) {
    ++edge_begin_[member_index_[l.a.value()] + 1];
    ++edge_begin_[member_index_[l.b.value()] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) edge_begin_[i + 1] += edge_begin_[i];
  edges_.resize(edge_begin_[n]);
  std::vector<std::uint32_t> cursor(edge_begin_.begin(), edge_begin_.end() - 1);
  for (const auto& l : links_) {
    const std::uint32_t a = member_index_[l.a.value()];
    const std::uint32_t b = member_index_[l.b.value()];
    edges_[cursor[a]++] = {b, l.underlay_cost};
    edges_[cursor[b]++] = {a, l.underlay_cost};
  }
  trees_.assign(n, Tree{});
}

const VnBone::Tree* VnBone::tree_from(NodeId ingress) const {
  if (ingress.value() >= member_index_.size()) return nullptr;
  const std::uint32_t root = member_index_[ingress.value()];
  if (root == kNoMember) return nullptr;
  Tree& tree = trees_[root];
  if (!tree.distance.empty()) return &tree;

  // net::dijkstra over the CSR: same (distance, index) heap order and
  // strict relaxation, so the same predecessors.
  const std::size_t n = member_node_.size();
  tree.distance.assign(n, net::kInfiniteCost);
  tree.predecessor.assign(n, kNoMember);
  using Entry = std::pair<Cost, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.distance[root] = 0;
  heap.push({0, root});
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > tree.distance[u]) continue;  // stale entry
    tree.settled.push_back(u);
    for (std::uint32_t e = edge_begin_[u]; e < edge_begin_[u + 1]; ++e) {
      const auto [v, cost] = edges_[e];
      if (dist + cost < tree.distance[v]) {
        tree.distance[v] = dist + cost;
        tree.predecessor[v] = u;
        heap.push({dist + cost, v});
      }
    }
  }
  return &tree;
}

Cost VnBone::vn_distance(const Tree* tree, NodeId ingress, NodeId to) const {
  if (to == ingress) return 0;
  if (tree == nullptr || to.value() >= member_index_.size()) return net::kInfiniteCost;
  const std::uint32_t index = member_index_[to.value()];
  return index == kNoMember ? net::kInfiniteCost : tree->distance[index];
}

void VnBone::register_endhost_route(IpvNAddr self_addr, NodeId advertiser) {
  assert(self_addr.is_self_address());
  endhost_routes_[self_addr] = advertiser;
}

void VnBone::unregister_endhost_route(IpvNAddr self_addr) {
  endhost_routes_.erase(self_addr);
}

std::optional<NodeId> VnBone::endhost_route(IpvNAddr self_addr) const {
  const auto it = endhost_routes_.find(self_addr);
  if (it == endhost_routes_.end()) return std::nullopt;
  return it->second;
}

Graph VnBone::virtual_graph() const {
  Graph g(network_.topology().router_count());
  for (const auto& l : links_) {
    g.add_undirected_edge(l.a, l.b, l.underlay_cost);
  }
  return g;
}

const VnBone::LegacyRoute& VnBone::legacy_route(DomainId domain,
                                                DomainId target) const {
  const std::size_t domains = network_.topology().domain_count();
  assert(domain.value() < domains && target.value() < domains);
  const std::uint64_t epoch = bgp_ == nullptr ? 0 : bgp_->loc_rib_epoch();
  if (legacy_epoch_ != epoch || legacy_routes_.size() != domains) {
    legacy_routes_.assign(domains, {});
    legacy_epoch_ = epoch;
  }
  auto& row = legacy_routes_[domain.value()];
  if (row.empty()) row.resize(domains);
  LegacyRoute& entry = row[target.value()];
  if (entry.filled) return entry;
  entry.filled = true;
  if (domain == target) {
    entry.length = 0;
    return entry;
  }
  if (bgp_ == nullptr) return entry;
  // The shortest AS path among the domain's borders; the first border
  // holding it wins ties.
  const Prefix prefix = net::Topology::domain_prefix(target);
  const bgp::Route* best = nullptr;
  for (const NodeId b : bgp_->speakers_of(domain)) {
    const bgp::Route* route = bgp_->best_route(b, prefix);
    if (route != nullptr &&
        (best == nullptr || route->as_path.size() < best->as_path.size())) {
      best = route;
    }
  }
  if (best != nullptr) {
    entry.length = best->as_path.size();
    entry.path = best->as_path;
  }
  return entry;
}

Cost VnBone::legacy_path_length(DomainId domain, DomainId target) const {
  return legacy_route(domain, target).length;
}

std::vector<DomainId> VnBone::legacy_path(DomainId domain, DomainId target) const {
  return legacy_route(domain, target).path;
}

VnBone::VnRoute VnBone::route(NodeId ingress, IpvNAddr dst,
                              std::optional<EgressMode> mode_override) const {
  VnRoute result;
  if (!active(ingress)) return result;
  const auto& topo = network_.topology();
  const EgressMode mode = mode_override.value_or(config_.egress_mode);
  const Tree* tree = tree_from(ingress);

  auto finish_at = [&](NodeId egress, bool legacy) {
    const Cost cost = vn_distance(tree, ingress, egress);
    if (cost == net::kInfiniteCost) return;
    result.ok = true;
    result.egress = egress;
    result.exits_to_legacy = legacy;
    result.vn_cost = cost;
    result.vn_hops = {egress};
    if (egress != ingress) {
      for (std::uint32_t at = tree->predecessor[member_index_[egress.value()]];
           at != kNoMember; at = tree->predecessor[at]) {
        result.vn_hops.push_back(member_node_[at]);
      }
      std::reverse(result.vn_hops.begin(), result.vn_hops.end());
    }
  };
  auto vn_cost_to = [&](NodeId r) { return vn_distance(tree, ingress, r); };

  if (!dst.is_self_address()) {
    // Native destination: its home domain "advertises this address into
    // the IPvN-Bone routing topology". If the access router is itself
    // IPvN, it is the egress and delivery is fully native; under partial
    // intra-domain deployment (A1) the egress is the home domain's
    // IGP-closest IPvN router, and the final stretch rides IPv(N-1).
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
    igp::Igp* igp = igp_of_(home_domain);
    const auto [egress, egress_d] = closest_active(home_domain, [&](NodeId r) {
      return igp ? igp->distance(r, home) : net::kInfiniteCost;
    });
    if (egress_d != net::kInfiniteCost) finish_at(egress, /*legacy=*/true);
    return result;
  }

  // Self-addressed destination in a (possibly) legacy domain.
  const Ipv4Addr legacy_dst = dst.embedded_v4();
  const auto target_domain = topo.domain_of_address(legacy_dst);
  if (!target_domain) return result;

  switch (mode) {
    case EgressMode::kExitAtIngress: {
      finish_at(ingress, /*legacy=*/true);
      return result;
    }
    case EgressMode::kOwnPathKnowledge: {
      // Walk my own BGPv(N-1) path to the target; ride the vN-Bone to the
      // deployed domain furthest along it (Figure 3), there to its
      // vN-closest deployed router.
      const DomainId my_domain = topo.router(ingress).domain;
      NodeId egress = ingress;
      if (*target_domain != my_domain) {
        const auto& path = legacy_route(my_domain, *target_domain).path;
        const auto chosen = std::find_if(path.rbegin(), path.rend(),
                                         [&](DomainId d) { return domain_active(d); });
        if (chosen != path.rend()) {
          const auto [closest, cost] = closest_active(*chosen, vn_cost_to);
          if (cost != net::kInfiniteCost) egress = closest;
        }
      }
      finish_at(egress, /*legacy=*/true);
      return result;
    }
    case EgressMode::kEndhostAdvertised: {
      // The destination must have registered; the route is only as alive
      // as its advertising router (fate-sharing).
      const auto advertiser = endhost_route(dst);
      if (!advertiser || !active(*advertiser)) return result;  // no route
      finish_at(*advertiser, /*legacy=*/true);
      return result;
    }
    case EgressMode::kProxyAdvertising: {
      // Every deployed domain advertises its BGPv(N-1) distance to the
      // target into BGPvN (Figure 4); pick the globally cheapest
      // (vN underlay + weighted AS hops) egress, ties to the lowest NodeId.
      // A score is never below its vN cost, so the walk over members by
      // ascending vN cost stops once that cost alone exceeds the best.
      NodeId egress = NodeId::invalid();
      Cost best_score = net::kInfiniteCost;
      auto consider = [&](NodeId r, Cost vn_cost) {
        if (!active(r)) return;
        const Cost legacy_len = legacy_route(topo.router(r).domain, *target_domain).length;
        if (legacy_len == net::kInfiniteCost) return;
        const Cost score = vn_cost + kAsHopWeight * legacy_len;
        if (score < best_score || (score == best_score && r < egress)) {
          egress = r;
          best_score = score;
        }
      };
      if (tree == nullptr) {
        consider(ingress, 0);  // a member without links reaches only itself
      } else {
        for (const std::uint32_t m : tree->settled) {
          if (tree->distance[m] > best_score) break;
          consider(member_node_[m], tree->distance[m]);
        }
      }
      finish_at(egress.valid() ? egress : ingress, /*legacy=*/true);
      return result;
    }
  }
  return result;
}

std::size_t VnBone::vn_rib_size(NodeId router) const {
  if (!deployed(router)) return 0;
  const auto domains = deployed_domains();
  std::size_t size = domains.size();  // native vN prefixes
  if (config_.egress_mode == EgressMode::kProxyAdvertising && bgp_ != nullptr) {
    // One proxy entry per (deployed domain, reachable legacy domain).
    for (const DomainId d : domains) {
      for (const auto& target : network_.topology().domains()) {
        if (domain_deployed(target.id)) continue;
        if (legacy_path_length(d, target.id) != net::kInfiniteCost) ++size;
      }
    }
  }
  return size;
}

}  // namespace evo::vnbone
