// The vN-Bone: the virtual IPvN network overlaid on the IPv(N-1) Internet
// (paper §3.3).
//
// Deployment is per-router (assumption A1 allows partial deployment even
// within an ISP). Every deployed router joins the deployment's anycast
// group, so encapsulated IPvN packets reach the vN-Bone from anywhere
// (universal access). The virtual topology is built per the paper:
//
//   intra-domain:  every IPvN router picks its k closest IPvN routers
//                  (IGP distance) as vN-Bone neighbors; partitions are
//                  detected and repaired using the members' complete view;
//   inter-domain:  tunnels follow peering policy (one per peering between
//                  deployed domains); a newly joined ISP with no deployed
//                  neighbor bootstraps through the anycast mechanism; and
//                  every component must stay connected to the *default*
//                  provider of the anycast address.
//
// Routing over the vN-Bone distinguishes (§3.3.2):
//   native destinations — routed on the IPvN address to the home domain;
//   self-addressed destinations — an egress IPvN router is selected using
//     imported BGPv(N-1) knowledge (Fig. 3) or advertising-by-proxy
//     (Fig. 4); the packet then exits the vN-Bone and travels natively.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "anycast/anycast.h"
#include "bgp/bgp.h"
#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::vnbone {

/// How an egress router is chosen for self-addressed (legacy-domain)
/// destinations — the three §3.3.2 strategies, in increasing capability.
enum class EgressMode : std::uint8_t {
  /// "Just exit the vN-Bone and forward the packet directly to the
  /// destination's IPv(N-1) address" at the first IPvN router.
  kExitAtIngress,
  /// Figure 3: the ingress uses its own domain's BGPv(N-1) path to the
  /// destination and rides the vN-Bone to the deployed domain furthest
  /// along that path.
  kOwnPathKnowledge,
  /// Figure 4: IPvN border routers advertise their BGPv(N-1) distance to
  /// legacy domains into BGPvN; the ingress picks the globally best
  /// (vN distance + advertised legacy distance) egress.
  kProxyAdvertising,
  /// §3.3.2's rejected-but-appealing alternative: "have the IPvN client
  /// use anycast to locate a closeby IPvN router and have that router
  /// advertise the client's temporary IPvN address." Gives the best
  /// possible egress (a router near the destination) at the price of
  /// per-host routing state and fate-sharing between the endhost and its
  /// advertising router.
  kEndhostAdvertised,
};

const char* to_string(EgressMode mode);

/// Control-plane weight of one BGPv(N-1) AS hop when comparing egress
/// candidates against vN-Bone underlay costs (proxy advertising only).
inline constexpr net::Cost kAsHopWeight = 5;

struct VnBoneConfig {
  /// The IP version being deployed (e.g. 8 for the paper's "IPv8").
  std::uint8_t version = 8;
  /// Intra-domain virtual degree: each router's k closest IPvN routers.
  std::uint32_t k_neighbors = 2;
  EgressMode egress_mode = EgressMode::kProxyAdvertising;
  /// §3.3.1: "as deployment spreads, the vN-Bone topology should evolve
  /// to be congruent with the underlying physical topology." When set,
  /// every physical intra-domain link whose both endpoints are deployed
  /// becomes a virtual link, so at full deployment the bone *is* the
  /// physical topology (no overlay stretch).
  bool congruent_evolution = true;
  /// Honor IGP capability limits (paper footnotes 2-3): in a domain whose
  /// IGP cannot enumerate anycast members (plain distance-vector), the
  /// k-closest rule is unavailable — construction falls back to "explicit
  /// neighbor discovery leveraging anycast for the initial bootstrap":
  /// each member tunnels to the member the anycast mechanism finds for
  /// it, yielding a join-order tree (plus congruent links, which need only
  /// local knowledge). Set false to grant every IGP full discovery.
  bool respect_discovery_limits = true;
  /// Anycast deployment option for the group serving this vN-Bone.
  anycast::InterDomainMode anycast_mode = anycast::InterDomainMode::kDefaultRoute;
};

struct VirtualLink {
  enum class Source : std::uint8_t {
    kIntraK,           // k-closest neighbor rule
    kPartitionRepair,  // added to reconnect an intra-domain partition
    kPeeringTunnel,    // inter-domain tunnel along a peering
    kAnycastBootstrap, // inter-domain tunnel found via anycast bootstrap
    kManual,           // operator-configured (MBone-style) tunnel
    kCongruent,        // physical link whose both ends deployed (§3.3.1
                       // congruence evolution)
  };
  net::NodeId a;
  net::NodeId b;
  net::Cost underlay_cost = 0;
  bool interdomain = false;
  Source source = Source::kIntraK;

  friend bool operator==(const VirtualLink&, const VirtualLink&) = default;
};

const char* to_string(VirtualLink::Source source);

class VnBone {
 public:
  /// `bgp` may be null only for single-domain setups. All references must
  /// outlive this object.
  VnBone(net::Network& network, bgp::BgpSystem* bgp,
         std::function<igp::Igp*(net::DomainId)> igp_of,
         anycast::AnycastService& anycast_service, VnBoneConfig config = {});

  const VnBoneConfig& config() const { return config_; }

  /// The anycast group assigned to this deployment; invalid until the
  /// first router deploys.
  net::GroupId anycast_group() const { return group_; }
  net::Ipv4Addr anycast_address() const;

  /// The default provider — the first ISP to deploy (owns the anycast
  /// address under option 2). Invalid before any deployment.
  net::DomainId default_domain() const { return default_domain_; }

  // --- deployment ---------------------------------------------------------
  void deploy_router(net::NodeId router);
  void undeploy_router(net::NodeId router);
  /// Deploy every router of `domain`.
  void deploy_domain(net::DomainId domain);

  bool deployed(net::NodeId router) const {
    return router.value() < deployed_flag_.size() && deployed_flag_[router.value()];
  }
  bool domain_deployed(net::DomainId domain) const {
    return !deployed_routers_in(domain).empty();
  }
  /// Every deployed router, ascending by NodeId.
  std::vector<net::NodeId> deployed_routers() const;
  /// `domain`'s deployed routers, ascending by NodeId.
  const std::vector<net::NodeId>& deployed_routers_in(net::DomainId domain) const;
  std::vector<net::DomainId> deployed_domains() const;

  /// The routers actually participating in the bone right now: deployed
  /// AND up. Const inspection point for invariant oracles (the fuzzer's
  /// vN-Bone connectivity check compares these against virtual_graph()).
  std::vector<net::NodeId> active_members() const;

  // --- virtual topology ----------------------------------------------------
  /// Rebuild the virtual topology from the (converged) substrate. Call
  /// after deployment changes and after the simulator reaches quiescence.
  void rebuild();

  /// MBone-style manual configuration (§3.3: "many ISPs might, as in the
  /// past, simply choose to configure their networks by hand"): a
  /// persistent operator-configured tunnel, re-applied on every rebuild
  /// while both ends remain deployed. Underlay cost follows the physical
  /// topology.
  void add_manual_tunnel(net::NodeId a, net::NodeId b);
  void remove_manual_tunnel(net::NodeId a, net::NodeId b);
  std::size_t manual_tunnel_count() const { return manual_tunnels_.size(); }
  /// Every configured tunnel as (low, high), active or dormant.
  const std::set<std::pair<net::NodeId, net::NodeId>>& manual_tunnels() const {
    return manual_tunnels_;
  }

  const std::vector<VirtualLink>& virtual_links() const { return links_; }
  /// Weighted graph over router NodeIds (only deployed routers have
  /// edges).
  net::Graph virtual_graph() const;

  /// Diagnostics from the last rebuild().
  std::size_t partition_repairs() const { return partition_repairs_; }
  std::size_t bootstrap_tunnels() const { return bootstrap_tunnels_; }

  /// Telemetry sink: rebuild() episodes become spans carrying link and
  /// repair counts. Null by default.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // --- vN routing -----------------------------------------------------------
  struct VnRoute {
    bool ok = false;
    /// Virtual hops, ingress first, egress last.
    std::vector<net::NodeId> vn_hops;
    /// Sum of tunnel underlay costs along vn_hops.
    net::Cost vn_cost = 0;
    net::NodeId egress;
    /// True when the packet exits the vN-Bone at the egress and continues
    /// natively over IPv(N-1) to a legacy destination.
    bool exits_to_legacy = false;

    std::size_t vn_hop_count() const {
      return vn_hops.empty() ? 0 : vn_hops.size() - 1;
    }

    friend bool operator==(const VnRoute&, const VnRoute&) = default;
  };

  /// Route an IPvN packet from `ingress` (a deployed router) toward `dst`
  /// under `mode`; the config's mode is used when `mode` is nullopt.
  ///
  /// A lookup into state compiled per input epoch (DESIGN.md §6): the
  /// shortest-path tree from `ingress` (valid until a rebuild() changes a
  /// link), the per-domain member lists (updated by deploy/undeploy) and
  /// the BGPv(N-1) legacy table (valid while the BGP Loc-RIB epoch holds).
  /// Router up/down state is read live. route() is const but fills these
  /// caches lazily, so a VnBone must not be shared across threads.
  VnRoute route(net::NodeId ingress, net::IpvNAddr dst,
                std::optional<EgressMode> mode = std::nullopt) const;

  /// BGPv(N-1) AS-path length from `domain` to `target` (min over the
  /// domain's border routers); kInfiniteCost when unknown. This is the
  /// information an IPvN border router "acquires from its domain's
  /// IPv(N-1) border router" (Fig. 3) and advertises by proxy (Fig. 4).
  net::Cost legacy_path_length(net::DomainId domain, net::DomainId target) const;

  /// The BGPv(N-1) AS path from `domain` to `target` (shortest among the
  /// domain's borders); empty when unknown.
  std::vector<net::DomainId> legacy_path(net::DomainId domain,
                                         net::DomainId target) const;

  // --- endhost route advertisement (§3.3.2 alternative) -------------------
  /// Register `self_addr` as advertised into BGPvN by `advertiser` (found
  /// by the endhost through anycast). Re-registering replaces the entry.
  void register_endhost_route(net::IpvNAddr self_addr, net::NodeId advertiser);
  void unregister_endhost_route(net::IpvNAddr self_addr);
  /// The advertiser currently serving `self_addr`'s route, if any — the
  /// route fate-shares with it: a dead/undeployed advertiser means no
  /// route until the endhost re-registers.
  std::optional<net::NodeId> endhost_route(net::IpvNAddr self_addr) const;
  std::size_t endhost_route_count() const { return endhost_routes_.size(); }

  /// Modeled BGPvN RIB size at a deployed router: one entry per deployed
  /// domain (native prefixes) plus, under proxy advertising, one entry per
  /// (advertising domain, legacy domain) pair.
  std::size_t vn_rib_size(net::NodeId router) const;

 private:
  /// Shortest-path tree over the compiled bone from one member, indexed by
  /// member index. Empty until first used in a bone epoch.
  struct Tree {
    std::vector<net::Cost> distance;
    std::vector<std::uint32_t> predecessor;  // kNoMember at the root
    /// Reachable members by ascending (distance, member index).
    std::vector<std::uint32_t> settled;
  };
  /// The BGPv(N-1) route from one domain to another, as the domain's
  /// borders see it: legacy_path_length() and legacy_path().
  struct LegacyRoute {
    bool filled = false;  // computed in the current Loc-RIB epoch
    net::Cost length = net::kInfiniteCost;
    std::vector<net::DomainId> path;
  };
  static constexpr std::uint32_t kNoMember = ~std::uint32_t{0};

  void ensure_group(net::DomainId first_domain);

  /// A router participates in the vN-Bone only while deployed AND up: a
  /// crashed member drops out of the virtual topology (and of egress
  /// selection) until it recovers. Deployment itself is configuration and
  /// survives the crash.
  bool active(net::NodeId router) const;
  bool domain_active(net::DomainId domain) const;
  std::vector<net::NodeId> active_routers_in(net::DomainId domain) const;
  /// The active member of `domain` minimizing `cost(member)`, ties to the
  /// lowest NodeId, with that cost (kInfiniteCost when none is finite).
  template <typename CostFn>
  std::pair<net::NodeId, net::Cost> closest_active(net::DomainId domain,
                                                   CostFn cost) const;

  /// rebuild()'s construction rules: fill links_ from the substrate.
  void build_links();
  /// Start a bone epoch: compile links_ into the CSR adjacency and drop
  /// every shortest-path tree. rebuild() skips it when no link changed.
  void compile_bone();
  /// The tree from `ingress`; null when `ingress` has no virtual link.
  const Tree* tree_from(net::NodeId ingress) const;
  /// vN-Bone distance from the root of `tree` (which is `ingress`) to `to`.
  net::Cost vn_distance(const Tree* tree, net::NodeId ingress, net::NodeId to) const;
  const LegacyRoute& legacy_route(net::DomainId domain, net::DomainId target) const;

  net::Network& network_;
  bgp::BgpSystem* bgp_;
  std::function<igp::Igp*(net::DomainId)> igp_of_;
  anycast::AnycastService& anycast_;
  obs::Recorder* recorder_ = nullptr;
  VnBoneConfig config_;

  net::GroupId group_ = net::GroupId::invalid();
  net::DomainId default_domain_ = net::DomainId::invalid();
  // Membership: a flag per router plus each domain's sorted member list.
  std::vector<bool> deployed_flag_;                        // by NodeId
  std::vector<std::vector<net::NodeId>> members_by_domain_;  // by DomainId
  std::size_t deployed_count_ = 0;
  std::set<std::pair<net::NodeId, net::NodeId>> manual_tunnels_;  // (low, high)
  std::map<net::IpvNAddr, net::NodeId> endhost_routes_;
  std::vector<VirtualLink> links_;
  std::size_t partition_repairs_ = 0;
  std::size_t bootstrap_tunnels_ = 0;

  // The compiled bone: link endpoints renumbered densely in NodeId order,
  // with each member's edges contiguous in links_ insertion order (so
  // Dijkstra's (distance, member) tie-break matches net::dijkstra's).
  std::vector<net::NodeId> member_node_;            // member index -> router
  std::vector<std::uint32_t> member_index_;         // NodeId -> member index
  std::vector<std::uint32_t> edge_begin_;           // CSR row offsets
  std::vector<std::pair<std::uint32_t, net::Cost>> edges_;  // (to, cost)
  mutable std::vector<Tree> trees_;                 // by member index

  // Legacy routes by [domain][target], keyed on bgp_->loc_rib_epoch(); a
  // domain's row is allocated on its first query in an epoch.
  mutable std::vector<std::vector<LegacyRoute>> legacy_routes_;
  mutable std::uint64_t legacy_epoch_ = 0;
};

}  // namespace evo::vnbone
