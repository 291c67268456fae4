// The IP Anycast service (paper §3.1–3.2): group management, address
// allocation, membership, and the two inter-domain deployment options.
//
// A group's members are routers ("only configured hosts within the network
// infrastructure are members of an anycast group and ISPs explicitly
// control the allocation and advertisement of anycast addresses" — the
// paper's stripped-down service model). Intra-domain reachability uses the
// IGP anycast extensions; inter-domain reachability uses one of:
//
//   Option 1 (kGlobalRoutes): the group address comes from a dedicated,
//   non-aggregatable block, and every member domain originates the /32
//   into BGP. Routing state grows with the number of groups.
//
//   Option 2 (kDefaultRoute): the group address is carved from the
//   *default domain's* unicast block, so ordinary unicast routing toward
//   the default domain delivers the packet — and any member domain on the
//   way captures it via its longer-prefix internal anycast route. Member
//   domains may additionally advertise the /32 to chosen neighbors
//   ("peering", bilateral, no-export) to widen their catchment.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bgp/bgp.h"
#include "igp/igp.h"
#include "net/network.h"

namespace evo::anycast {

enum class InterDomainMode : std::uint8_t {
  kGlobalRoutes,  // option 1: non-aggregatable addresses, global routes
  kDefaultRoute,  // option 2: aggregatable addresses, default routes
  /// GIA (Katabi et al., discussed in §3.2): addresses rooted in a "home"
  /// domain; default routes toward it, plus a scoped search — member
  /// routes are visible within a bounded AS radius, trading a little
  /// routing state for proximity. "GIA requires that the home domain
  /// include at least one member of the anycast group."
  kGia,
};

const char* to_string(InterDomainMode mode);

struct GroupConfig {
  InterDomainMode mode = InterDomainMode::kDefaultRoute;
  /// For kDefaultRoute: the domain whose address space hosts the group
  /// address ("e.g., the first ISP to initiate deployment of IPvN").
  net::DomainId default_domain;
  /// For kGia: how many AS hops member advertisements travel before the
  /// home-domain default route takes over.
  std::uint8_t gia_search_radius = 2;
};

struct Group {
  net::GroupId id;
  GroupConfig config;
  net::Ipv4Addr address;
  std::set<net::NodeId> members;
  /// For option 2: per member-domain, the neighbor domains it advertises
  /// its anycast route to.
  std::map<net::DomainId, std::set<net::DomainId>> peer_advertisements;

  bool has_member_in(const net::Topology& topo, net::DomainId domain) const;
  std::vector<net::DomainId> member_domains(const net::Topology& topo) const;
};

class AnycastService {
 public:
  /// `network`, `bgp` and the IGPs must outlive this object. A member joins
  /// its domain's IGP; BGP carries the group's inter-domain origination.
  AnycastService(net::Network& network, bgp::BgpSystem& bgp, igp::IgpTable igps);

  /// Create a group and allocate its address. For kDefaultRoute the
  /// address comes from the default domain's block; for kGlobalRoutes from
  /// the dedicated anycast block.
  net::GroupId create_group(GroupConfig config);

  /// Router starts terminating the group's address: IGP advertisement,
  /// local delivery, and (option 1, first member in the domain) BGP
  /// origination of the /32.
  void add_member(net::GroupId group, net::NodeId router);
  void remove_member(net::GroupId group, net::NodeId router);

  /// Option 2 widening: `member_domain` advertises its anycast route to
  /// `neighbor` ("Q can peer with Y to advertise its path for the anycast
  /// address"). The advertisement is bilateral: no-export at the receiver.
  void advertise_via_peering(net::GroupId group, net::DomainId member_domain,
                             net::DomainId neighbor);
  void stop_peering_advertisement(net::GroupId group, net::DomainId member_domain,
                                  net::DomainId neighbor);

  /// Conditional origination, the BGP "network statement" discipline: a
  /// border router of a member domain advertises a group's route only
  /// while it reaches an up member itself through the IGP. Otherwise it
  /// would attract anycast traffic it can only default-route back out — a
  /// persistent inter-domain forwarding loop. Call after each IGP
  /// reconvergence; returns true when any origination changed (new BGP
  /// UPDATEs are then in flight, so reconverge again).
  bool sync_reachability();

  const Group& group(net::GroupId id) const { return groups_.at(id.value()); }
  std::size_t group_count() const { return groups_.size(); }

  /// The dedicated option-1 address block.
  static net::Prefix global_anycast_block() {
    return net::Prefix{net::Ipv4Addr{0}, 16};
  }

  /// Telemetry sink for origination transitions. Null by default.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  Group& mutable_group(net::GroupId id) { return groups_.at(id.value()); }

  /// (Re-)originate or withdraw the group's BGP route at each border of
  /// `domain` according to mode, membership, the border's reachability of
  /// a member, and peering advertisements. With `force` false, BGP is
  /// touched only where the originate/withdraw state flips (originate()
  /// always re-advertises, so an unconditional resweep would never
  /// quiesce); membership and peering mutations pass true to push policy
  /// changes out. Returns whether any origination state flipped.
  bool sync_bgp_origination(const Group& group, net::DomainId domain,
                            bool force = true);

  /// True when `speaker` can serve the group: an up member of its domain
  /// is the speaker itself or reachable from it through the domain's IGP.
  bool reaches_member(const Group& group, net::NodeId speaker) const;

  net::Network& network_;
  bgp::BgpSystem& bgp_;
  igp::IgpTable igps_;
  obs::Recorder* recorder_ = nullptr;
  std::vector<Group> groups_;
  /// Current origination state per (group, speaker), so the reachability
  /// sweep only calls into BGP on transitions.
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> originating_;
  /// Next free option-1 address and per-domain option-2 slot counters.
  std::uint32_t next_global_index_ = 1;
  std::map<net::DomainId, std::uint32_t> next_default_slot_;
};

}  // namespace evo::anycast
