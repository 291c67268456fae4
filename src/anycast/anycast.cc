#include "anycast/anycast.h"

#include <cassert>

namespace evo::anycast {

using net::DomainId;
using net::GroupId;
using net::Ipv4Addr;
using net::NodeId;
using net::Prefix;

const char* to_string(InterDomainMode mode) {
  switch (mode) {
    case InterDomainMode::kGlobalRoutes: return "global-routes";
    case InterDomainMode::kDefaultRoute: return "default-route";
    case InterDomainMode::kGia: return "gia";
  }
  return "?";
}

bool Group::has_member_in(const net::Topology& topo, DomainId domain) const {
  for (const NodeId m : members) {
    if (topo.router(m).domain == domain) return true;
  }
  return false;
}

std::vector<DomainId> Group::member_domains(const net::Topology& topo) const {
  std::vector<DomainId> out;
  for (const NodeId m : members) {
    const DomainId d = topo.router(m).domain;
    if (out.empty() || out.back() != d) {
      if (std::find(out.begin(), out.end(), d) == out.end()) out.push_back(d);
    }
  }
  return out;
}

AnycastService::AnycastService(net::Network& network, bgp::BgpSystem& bgp,
                               igp::IgpTable igps)
    : network_(network), bgp_(bgp), igps_(igps) {}

GroupId AnycastService::create_group(GroupConfig config) {
  const GroupId id{static_cast<std::uint32_t>(groups_.size())};
  Group group;
  group.id = id;
  group.config = config;

  if (config.mode == InterDomainMode::kGlobalRoutes) {
    // Dedicated non-aggregatable block: 0.0.x.y (domain slots start at 1,
    // so the 0/16 block can never collide with unicast allocations).
    assert(next_global_index_ < 0xFFFF && "global anycast block exhausted");
    group.address = Ipv4Addr{next_global_index_++};
  } else {
    // Options 2 and GIA both root the address in the default/home
    // domain's unicast space: carve a /32 out of its block, in the
    // reserved top subnet (router subnets use indices 0..254, so index
    // 255 is free).
    assert(config.default_domain.valid());
    auto& slot = next_default_slot_[config.default_domain];
    assert(slot < 254 && "default domain's anycast slots exhausted");
    const Prefix base = net::Topology::domain_prefix(config.default_domain);
    group.address = Ipv4Addr{base.address().bits() | (255u << 8) | (++slot)};
  }

  groups_.push_back(std::move(group));
  return id;
}

void AnycastService::add_member(GroupId group_id, NodeId router) {
  Group& group = mutable_group(group_id);
  if (!group.members.insert(router).second) return;

  network_.add_local_address(router, group.address);
  const DomainId domain = network_.topology().router(router).domain;
  igps_[domain.value()]->add_anycast_member(router, group.address);
  sync_bgp_origination(group, domain);
}

void AnycastService::remove_member(GroupId group_id, NodeId router) {
  Group& group = mutable_group(group_id);
  if (group.members.erase(router) == 0) return;

  network_.remove_local_address(router, group.address);
  const DomainId domain = network_.topology().router(router).domain;
  igps_[domain.value()]->remove_anycast_member(router, group.address);
  sync_bgp_origination(group, domain);
}

void AnycastService::advertise_via_peering(GroupId group_id, DomainId member_domain,
                                           DomainId neighbor) {
  Group& group = mutable_group(group_id);
  assert(group.config.mode == InterDomainMode::kDefaultRoute &&
         "peering advertisement applies to option 2 only");
  assert(network_.topology().relationship(member_domain, neighbor).has_value() &&
         "domains must be adjacent to peer-advertise");
  group.peer_advertisements[member_domain].insert(neighbor);
  sync_bgp_origination(group, member_domain);
}

void AnycastService::stop_peering_advertisement(GroupId group_id,
                                                DomainId member_domain,
                                                DomainId neighbor) {
  Group& group = mutable_group(group_id);
  auto it = group.peer_advertisements.find(member_domain);
  if (it == group.peer_advertisements.end()) return;
  it->second.erase(neighbor);
  if (it->second.empty()) group.peer_advertisements.erase(it);
  sync_bgp_origination(group, member_domain);
}

bool AnycastService::reaches_member(const Group& group, NodeId speaker) const {
  const auto& topo = network_.topology();
  const DomainId domain = topo.router(speaker).domain;
  const igp::Igp& igp = *igps_[domain.value()];
  for (const NodeId m : group.members) {
    const auto& router = topo.router(m);
    if (router.domain != domain || !router.up) continue;
    if (speaker == m || igp.distance(speaker, m) != net::kInfiniteCost) {
      return true;
    }
  }
  return false;
}

bool AnycastService::sync_bgp_origination(const Group& group, DomainId domain,
                                          bool force) {
  const Prefix host_route = Prefix::host(group.address);
  bgp::OriginationPolicy policy;
  policy.anycast = true;
  bool allowed = true;
  switch (group.config.mode) {
    case InterDomainMode::kGlobalRoutes:
      // Every serving domain originates the /32 globally ("propagating
      // these routes in BGP would require a change in policy but not
      // mechanism").
      break;
    case InterDomainMode::kGia:
      // GIA: member routes propagate within the search radius; everyone
      // farther follows the home domain's aggregate.
      policy.propagation_ttl = group.config.gia_search_radius;
      break;
    case InterDomainMode::kDefaultRoute: {
      // Option 2: no global origination — the default domain's aggregate
      // covers the address. Only member domains with peering arrangements
      // originate the /32, scoped to those neighbors and no-export.
      const auto peers = group.peer_advertisements.find(domain);
      allowed = peers != group.peer_advertisements.end() && !peers->second.empty();
      policy.no_export = true;
      if (allowed) policy.export_scope = peers->second;
      break;
    }
  }

  bool flipped_any = false;
  for (const NodeId speaker : bgp_.speakers_of(domain)) {
    const bool should = allowed && reaches_member(group, speaker);
    bool& current = originating_[{group.id.value(), speaker.value()}];
    const bool flipped = current != should;
    if (!force && !flipped) continue;
    current = should;
    flipped_any = flipped_any || flipped;
    if (recorder_ != nullptr && flipped) {
      recorder_->instant(obs::Domain::kAnycast,
                         should ? "anycast.originate" : "anycast.withdraw",
                         group.id.value(), speaker.value());
    }
    if (should) {
      bgp_.originate(speaker, host_route, policy);
    } else {
      bgp_.withdraw(speaker, host_route);
    }
  }
  return flipped_any;
}

bool AnycastService::sync_reachability() {
  bool changed = false;
  for (const Group& group : groups_) {
    for (const auto& domain : network_.topology().domains()) {
      if (sync_bgp_origination(group, domain.id, /*force=*/false)) changed = true;
    }
  }
  return changed;
}

}  // namespace evo::anycast
