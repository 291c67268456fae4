#include "vnbone/vnbone.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <ranges>
#include <span>

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

VnBone::VnBone(const net::Network& network, const bgp::BgpSystem& bgp,
               igp::IgpTable igps, anycast::AnycastService& anycast_service,
               VnBoneConfig config)
    : network_(network),
      bgp_(bgp),
      igps_(igps),
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
  ++memo_generation_;
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
  ++memo_generation_;
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

}  // namespace

void VnBone::PairSet::reset() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  size_ = 0;
}

bool VnBone::PairSet::insert(std::uint32_t lo, std::uint32_t hi) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
    old.swap(slots_);
    for (const std::uint64_t key : old) {
      if (key != kEmpty) slot(key) = key;
    }
  }
  const std::uint64_t key = (std::uint64_t{lo} << 32) | hi;
  std::uint64_t& at = slot(key);
  if (at == key) return false;
  at = key;
  ++size_;
  return true;
}

std::uint64_t& VnBone::PairSet::slot(std::uint64_t key) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
  return slots_[i];
}

void VnBone::build_links() {
  links_.clear();
  partition_repairs_ = 0;
  bootstrap_tunnels_ = 0;
  if (deployed_count_ == 0) return;

  const auto& topo = network_.topology();
  const auto domains = deployed_domains();
  // The usable physical links, read straight from the topology. The
  // searches below read distances and the pop order alone, which do not
  // depend on the order edges relax in.
  const auto physical_edges = [&topo](std::uint32_t u, auto&& relax) {
    for (const net::LinkId id : topo.router(NodeId{u}).links) {
      if (!topo.link_usable(id)) continue;
      const auto& link = topo.link(id);
      relax(link.other_end(NodeId{u}).value(), link.cost);
    }
  };

  // Each deployed domain's view: a fresh stamp when its IGP epoch or its
  // active members moved since the last rebuild.
  domain_links_.resize(topo.domain_count());
  seeds_.resize(topo.domain_count());
  endpoints_.resize(topo.router_count());
  for (const DomainId domain : domains) {
    DomainLinks& cached = domain_links_[domain.value()];
    const std::uint64_t epoch = igps_[domain.value()]->epoch();
    auto members = deployed_routers_in(domain) |
                   std::views::filter([&](NodeId r) { return topo.router(r).up; });
    if (cached.view == 0 || cached.igp_epoch != epoch ||
        !std::ranges::equal(members, cached.members)) {
      cached.view = ++views_;
      cached.igp_epoch = epoch;
      cached.members.assign(members.begin(), members.end());
      cached.filled = false;
    }
    seeds_[domain.value()].clear();
  }

  // Dedup: the first link between a (low, high) pair wins. The
  // components of the non-interdomain links drive partition repair.
  link_pairs_.reset();
  Components intra(topo.router_count());
  auto add_link = [&](NodeId a, NodeId b, Cost cost, bool interdomain,
                      VirtualLink::Source source) {
    const std::uint32_t lo = std::min(a.value(), b.value());
    const std::uint32_t hi = std::max(a.value(), b.value());
    if (!link_pairs_.insert(lo, hi)) return;
    links_.push_back(VirtualLink{a, b, cost, interdomain, source});
    if (!interdomain) intra.unite(a, b);
  };
  // An intra-domain link of the manual or congruent pass, recorded as a
  // seed of its domain's partition repair.
  auto add_seed = [&](NodeId a, NodeId b, Cost cost, VirtualLink::Source source) {
    seeds_[topo.router(a).domain.value()].push_back({a, b});
    add_link(a, b, cost, false, source);
  };

  // ---- operator-configured (manual) tunnels -----------------------------
  // Added first: explicit configuration takes precedence over (and is not
  // absorbed by) the automatic rules. The underlay cost comes from a
  // search out of a that stops once b settles.
  for (const auto& [a, b] : manual_tunnels_) {
    if (!active(a) || !active(b)) continue;  // dormant until both deploy & up
    physical_search_.reset(topo.router_count());
    physical_search_.add_source(a.value());
    while (!physical_search_.settled(b.value()) &&
           physical_search_.settle_next(physical_edges) != net::kNoNode) {
    }
    if (!physical_search_.settled(b.value())) continue;
    const Cost cost = physical_search_.distance(b.value());
    if (topo.router(a).domain != topo.router(b).domain) {
      add_link(a, b, cost, true, VirtualLink::Source::kManual);
    } else {
      add_seed(a, b, cost, VirtualLink::Source::kManual);
    }
  }

  // ---- congruence evolution: adopt physical links between members ------
  for (const auto& link : topo.links()) {
    if (link.interdomain || !topo.link_usable(link.id)) continue;
    if (active(link.a) && active(link.b)) {
      add_seed(link.a, link.b, link.cost, VirtualLink::Source::kCongruent);
    }
  }

  // ---- intra-domain: k closest neighbors, then partition repair --------
  // A domain whose view and seeds are unchanged replays its links through
  // add_link in their order, so the dedup and links_ come out as derived.
  auto take = [&](const VirtualLink& l) {
    add_link(l.a, l.b, l.underlay_cost, false, l.source);
    if (l.source == VirtualLink::Source::kPartitionRepair) ++partition_repairs_;
    if (l.source == VirtualLink::Source::kAnycastBootstrap) ++bootstrap_tunnels_;
  };
  for (const DomainId domain : domains) {
    DomainLinks& cached = domain_links_[domain.value()];
    auto& seeds = seeds_[domain.value()];
    if (cached.filled && cached.seeds == seeds) {
      for (const VirtualLink& l : cached.links) take(l);
      continue;
    }
    cached.filled = true;
    cached.seeds.swap(seeds);
    cached.links.clear();
    auto propose = [&](NodeId a, NodeId b, Cost cost, VirtualLink::Source source) {
      cached.links.push_back(VirtualLink{a, b, cost, false, source});
      take(cached.links.back());
    };

    const auto& members = cached.members;
    if (members.size() < 2) continue;
    const igp::Igp& igp = *igps_[domain.value()];
    auto dist = [&](NodeId a, NodeId b) { return igp.distance(a, b); };

    if (!igp.supports_member_discovery()) {
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
          propose(members[i], nearest, nearest_d, VirtualLink::Source::kAnycastBootstrap);
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
        propose(r, ranked[i].second, ranked[i].first, VirtualLink::Source::kIntraK);
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
      propose(best_a, best_b, best_cost, VirtualLink::Source::kPartitionRepair);
    }
  }

  // ---- inter-domain: tunnels along peerings ------------------------------
  // Tunnel endpoints: each side's IPvN router closest (by IGP) to its end
  // of the physical peering link, kept while that domain's view holds.
  const auto closest_member = [&](DomainId domain, NodeId to) -> const Endpoint& {
    Endpoint& end = endpoints_[to.value()];
    const std::uint64_t view = domain_links_[domain.value()].view;
    if (end.view == view) return end;
    const igp::Igp& igp = *igps_[domain.value()];
    const auto [member, cost] = closest_active(
        domain, [&](NodeId m) { return m == to ? 0 : igp.distance(m, to); });
    end = Endpoint{view, member, cost};
    return end;
  };
  for (const DomainId da : domains) {
    for (const auto& peering : topo.domain(da).peerings) {
      const DomainId db = peering.neighbor;
      if (da >= db) continue;  // each pair once (peerings are symmetric)
      if (!domain_active(db)) continue;
      const auto& link = topo.link(peering.link);
      if (!topo.link_usable(peering.link)) continue;
      const NodeId end_a =
          topo.router(link.a).domain == da ? link.a : link.b;
      const NodeId end_b = link.other_end(end_a);
      const Endpoint& ea = closest_member(da, end_a);
      const Endpoint& eb = closest_member(db, end_b);
      if (!ea.member.valid() || !eb.member.valid()) continue;
      if (ea.cost == net::kInfiniteCost || eb.cost == net::kInfiniteCost) continue;
      add_link(ea.member, eb.member, ea.cost + link.cost + eb.cost, true,
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
    // footnote). Routers settle by nondecreasing distance, so the search
    // stops once one lies beyond the best target: a lower-id router at the
    // best distance still settles before the stop, even when a zero-cost
    // link reaches it only after a higher-id one.
    NodeId target = NodeId::invalid();
    Cost target_d = net::kInfiniteCost;
    physical_search_.reset(topo.router_count());
    physical_search_.add_source(stranded.value());
    for (Cost next = physical_search_.next_distance();
         next != net::kInfiniteCost && next <= target_d;
         next = physical_search_.next_distance()) {
      const NodeId r{physical_search_.settle_next(physical_edges)};
      const bool foreign = active(r) && bone.root(r) != bone.root(stranded);
      if (foreign && (next < target_d || r < target)) {
        target = r;
        target_d = next;
      }
    }
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
  tree_slot_.assign(member_index_.size(), kNoMember);
  trees_in_use_ = 0;
}

VnBone::PooledTree* VnBone::tree_from(NodeId ingress) const {
  if (ingress.value() >= tree_slot_.size()) return nullptr;
  std::uint32_t& slot = tree_slot_[ingress.value()];
  if (slot != kNoMember) return &trees_[slot];
  const std::uint32_t root = member_index_[ingress.value()];
  if (root == kNoMember) return nullptr;
  slot = trees_in_use_++;
  if (slot == trees_.size()) trees_.emplace_back();
  PooledTree& pooled = trees_[slot];
  pooled.tree.reset(member_node_.size());
  pooled.tree.add_source(root);
  pooled.memo_generation = 0;
  return &pooled;
}

std::span<std::uint32_t> VnBone::proxy_memo(PooledTree& pooled) const {
  const auto& topo = network_.topology();
  if (memo_loc_rib_epoch_ != bgp_.loc_rib_epoch() ||
      memo_topology_epoch_ != topo.epoch()) {
    memo_loc_rib_epoch_ = bgp_.loc_rib_epoch();
    memo_topology_epoch_ = topo.epoch();
    ++memo_generation_;
  }
  if (pooled.memo_generation != memo_generation_ ||
      pooled.proxy_egress.size() != topo.domain_count()) {
    pooled.proxy_egress.assign(topo.domain_count(), kNoMember);
    pooled.memo_generation = memo_generation_;
  }
  return pooled.proxy_egress;
}

NodeId VnBone::proxy_walk(Tree& tree, DomainId target) const {
  // Every deployed domain advertises its BGPv(N-1) distance to the target
  // into BGPvN (Figure 4). A score is never below its vN cost, so the walk
  // over members by ascending vN cost stops once that cost alone exceeds
  // the best; the tree settles only as far as the walk goes.
  const auto& topo = network_.topology();
  NodeId egress = NodeId::invalid();
  Cost best_score = net::kInfiniteCost;
  const std::span<LegacyRoute> legacy = legacy_column(target);
  std::span<const std::uint32_t> settled = tree.order();
  for (std::size_t i = 0;; ++i) {
    if (i == settled.size()) {
      if (!settle_within(tree, best_score)) break;
      settled = tree.order();
    }
    const Cost vn_cost = tree.distance(settled[i]);
    if (vn_cost > best_score) break;
    const NodeId r = member_node_[settled[i]];
    if (!active(r)) continue;
    const Cost legacy_len = legacy_entry(legacy, topo.router(r).domain, target).cost();
    if (legacy_len == net::kInfiniteCost) continue;
    const Cost score = vn_cost + kAsHopWeight * legacy_len;
    if (score < best_score || (score == best_score && r < egress)) {
      egress = r;
      best_score = score;
    }
  }
  return egress;
}

bool VnBone::settle_within(Tree& tree, Cost bound) const {
  const Cost next = tree.next_distance();
  if (next == net::kInfiniteCost || next > bound) return false;
  // net::dijkstra's search over the CSR, whose members are numbered in
  // NodeId order: the same predecessors as over virtual_graph().
  tree.settle_next([&](std::uint32_t u, auto&& relax) {
    for (std::uint32_t e = edge_begin_[u]; e < edge_begin_[u + 1]; ++e) {
      relax(edges_[e].first, edges_[e].second);
    }
  });
  return true;
}

void VnBone::settle_until(Tree& tree, std::uint32_t m) const {
  while (!tree.settled(m) && settle_within(tree, net::kInfiniteCost)) {
  }
}

void VnBone::settle_to_domain(Tree& tree, DomainId domain) const {
  const auto& topo = network_.topology();
  Cost nearest = net::kInfiniteCost;
  for (const NodeId r : deployed_routers_in(domain)) {
    const std::uint32_t m = member_index_[r.value()];
    if (m != kNoMember && tree.settled(m) && topo.router(r).up) {
      nearest = std::min(nearest, tree.distance(m));
    }
  }
  // No member has settled yet, so the first to settle is the nearest.
  while (nearest == net::kInfiniteCost && settle_within(tree, net::kInfiniteCost)) {
    const std::uint32_t m = tree.order().back();
    const NodeId r = member_node_[m];
    if (topo.router(r).domain == domain && active(r)) nearest = tree.distance(m);
  }
  while (settle_within(tree, nearest)) {
  }
}

Cost VnBone::vn_distance(Tree* tree, NodeId ingress, NodeId to) const {
  if (to == ingress) return 0;
  if (tree == nullptr || to.value() >= member_index_.size()) return net::kInfiniteCost;
  const std::uint32_t index = member_index_[to.value()];
  if (index == kNoMember) return net::kInfiniteCost;
  if (!tree->settled(index)) settle_until(*tree, index);
  return tree->distance(index);  // kInfiniteCost when unreachable
}

std::pair<NodeId, Cost> VnBone::closest_on_bone(Tree* tree, NodeId ingress,
                                                DomainId domain) const {
  if (tree != nullptr) settle_to_domain(*tree, domain);
  return closest_active(domain, [&](NodeId r) {
    if (r == ingress) return Cost{0};
    if (tree == nullptr) return net::kInfiniteCost;
    const std::uint32_t m = member_index_[r.value()];
    return m != kNoMember && tree->settled(m) ? tree->distance(m) : net::kInfiniteCost;
  });
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

std::span<VnBone::LegacyRoute> VnBone::legacy_column(DomainId target) const {
  const std::size_t domains = network_.topology().domain_count();
  assert(target.value() < domains);
  const std::uint64_t epoch = bgp_.loc_rib_epoch();
  if (legacy_epoch_ != epoch || legacy_routes_.size() != domains) {
    legacy_routes_.assign(domains, {});
    legacy_epoch_ = epoch;
  }
  auto& column = legacy_routes_[target.value()];
  if (column.empty()) column.resize(domains);
  return column;
}

const VnBone::LegacyRoute& VnBone::legacy_entry(std::span<LegacyRoute> column,
                                                DomainId domain,
                                                DomainId target) const {
  LegacyRoute& entry = column[domain.value()];
  if (entry.length == LegacyRoute::kUnfilled) fill_legacy_route(entry, domain, target);
  return entry;
}

void VnBone::fill_legacy_route(LegacyRoute& entry, DomainId domain,
                               DomainId target) const {
  entry.length = LegacyRoute::kUnreachable;
  if (domain == target) {
    entry.length = 0;
    return;
  }
  // The shortest AS path among the domain's borders; the first border
  // holding it wins ties.
  const Prefix prefix = net::Topology::domain_prefix(target);
  const bgp::Route* best = nullptr;
  for (const NodeId b : bgp_.speakers_of(domain)) {
    const bgp::Route* route = bgp_.best_route(b, prefix);
    if (route != nullptr &&
        (best == nullptr || route->as_path.size() < best->as_path.size())) {
      best = route;
    }
  }
  if (best != nullptr) {
    assert(best->as_path.size() < LegacyRoute::kUnreachable);
    entry.length = static_cast<std::uint32_t>(best->as_path.size());
    entry.path = best->as_path.id();
  }
}

const VnBone::LegacyRoute& VnBone::legacy_route(DomainId domain,
                                                DomainId target) const {
  assert(domain.value() < network_.topology().domain_count());
  return legacy_entry(legacy_column(target), domain, target);
}

Cost VnBone::legacy_path_length(DomainId domain, DomainId target) const {
  return legacy_route(domain, target).cost();
}

bgp::AsPath VnBone::legacy_path(DomainId domain, DomainId target) const {
  return bgp_.paths().get(legacy_route(domain, target).path);
}

VnBone::VnRoute VnBone::route(NodeId ingress, IpvNAddr dst,
                              std::optional<EgressMode> mode_override) const {
  VnRoute result;
  if (!active(ingress)) return result;
  const auto& topo = network_.topology();
  const EgressMode mode = mode_override.value_or(config_.egress_mode);
  PooledTree* pooled = tree_from(ingress);
  Tree* tree = pooled != nullptr ? &pooled->tree : nullptr;

  auto finish_at = [&](NodeId egress, bool legacy) {
    const Cost cost = vn_distance(tree, ingress, egress);
    if (cost == net::kInfiniteCost) return;
    result.ok = true;
    result.egress = egress;
    result.exits_to_legacy = legacy;
    result.vn_cost = cost;
    // The predecessor chain from the egress back to the root (just the
    // ingress when it is the egress), counted first so vn_hops is
    // allocated once, then filled back to front.
    const std::uint32_t last = egress == ingress ? kNoMember : member_index_[egress.value()];
    std::size_t size = last == kNoMember ? 1 : 0;
    for (std::uint32_t at = last; at != kNoMember; at = tree->predecessor(at)) ++size;
    result.vn_hops.resize(size);
    result.vn_hops.front() = ingress;
    for (std::uint32_t at = last; at != kNoMember; at = tree->predecessor(at)) {
      result.vn_hops[--size] = member_node_[at];
    }
  };

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
    const igp::Igp& igp = *igps_[home_domain.value()];
    const auto [egress, egress_d] =
        closest_active(home_domain, [&](NodeId r) { return igp.distance(r, home); });
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
        const bgp::AsPath path = legacy_path(my_domain, *target_domain);
        const auto chosen = std::find_if(path.rbegin(), path.rend(),
                                         [&](DomainId d) { return domain_active(d); });
        if (chosen != path.rend()) {
          const auto [closest, cost] = closest_on_bone(tree, ingress, *chosen);
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
      // A member without links reaches only itself.
      if (pooled == nullptr) {
        finish_at(ingress, /*legacy=*/true);
        return result;
      }
      std::uint32_t& egress = proxy_memo(*pooled)[target_domain->value()];
      if (egress == kNoMember) {
        const NodeId chosen = proxy_walk(*tree, *target_domain);
        egress = (chosen.valid() ? chosen : ingress).value();
      }
      finish_at(NodeId{egress}, /*legacy=*/true);
      return result;
    }
  }
  return result;
}

}  // namespace evo::vnbone
