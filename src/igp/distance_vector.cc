#include "igp/distance_vector.h"

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

DistanceVectorIgp::DistanceVectorIgp(sim::Simulator& simulator, net::Network& network,
                                     DomainId domain, DistanceVectorConfig config)
    : simulator_(simulator), network_(network), domain_(domain), config_(config) {
  for (const NodeId node : network_.topology().domain(domain_).routers) {
    states_.emplace(node.value(), RouterState{});
  }
}

DistanceVectorIgp::RouterState& DistanceVectorIgp::state(NodeId node) {
  auto it = states_.find(node.value());
  assert(it != states_.end() && "router not in this IGP's domain");
  return it->second;
}

const DistanceVectorIgp::RouterState& DistanceVectorIgp::state(NodeId node) const {
  auto it = states_.find(node.value());
  assert(it != states_.end() && "router not in this IGP's domain");
  return it->second;
}

void DistanceVectorIgp::start() {
  started_ = true;
  for (const NodeId node : network_.topology().domain(domain_).routers) {
    originate_local(node);
    schedule_triggered(node);
    if (config_.periodic_interval > sim::Duration::zero()) schedule_periodic(node);
  }
}

void DistanceVectorIgp::originate_local(NodeId router) {
  auto& st = state(router);
  const auto& r = network_.topology().router(router);
  auto self_route = [&](Prefix p, bool anycast) {
    Route route;
    route.metric = 0;
    route.next_hop = NodeId::invalid();
    route.out_link = LinkId::invalid();
    route.anycast = anycast;
    route.changed = true;
    if (config_.tagged_advertisements && p == Prefix::host(r.loopback)) {
      route.tags = st.memberships;
    }
    st.table[p] = route;
  };
  self_route(Prefix::host(r.loopback), false);
  self_route(net::Topology::router_subnet(r.domain, r.index_in_domain), false);
  for (const Ipv4Addr addr : st.memberships) {
    self_route(Prefix::host(addr), true);
  }
  install_fib(router);
}

void DistanceVectorIgp::add_anycast_member(NodeId router, Ipv4Addr anycast) {
  auto& st = state(router);
  if (!st.memberships.insert(anycast).second) return;
  if (started_) {
    originate_local(router);
    schedule_triggered(router);
  }
}

void DistanceVectorIgp::remove_anycast_member(NodeId router, Ipv4Addr anycast) {
  auto& st = state(router);
  if (st.memberships.erase(anycast) == 0) return;
  if (!started_) return;
  // Poison our own zero-distance advertisement; an alternative member (if
  // any) will be re-learned from neighbors after the request below.
  auto it = st.table.find(Prefix::host(anycast));
  if (it != st.table.end() && !it->second.next_hop.valid()) {
    it->second.metric = config_.infinity;
    it->second.changed = true;
  }
  // Refresh self-originated routes (drops the membership from the loopback
  // tags); the poisoned anycast entry above is left in place.
  originate_local(router);
  schedule_triggered(router);
  request_full_tables(router);
}

std::vector<NodeId> DistanceVectorIgp::discovered_members(NodeId viewpoint,
                                                          Ipv4Addr anycast) const {
  if (!config_.tagged_advertisements) return {};
  const auto& st = state(viewpoint);
  std::vector<NodeId> members;
  for (const auto& [prefix, route] : st.table) {
    if (route.metric >= config_.infinity) continue;
    if (!route.tags.contains(anycast)) continue;
    if (prefix.length() != 32) continue;
    const auto node = network_.topology().router_by_loopback(prefix.address());
    if (node) members.push_back(*node);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

Cost DistanceVectorIgp::distance(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const auto& st = state(from);
  const auto it = st.table.find(Prefix::host(network_.topology().router(to).loopback));
  if (it == st.table.end() || it->second.metric >= config_.infinity) {
    return net::kInfiniteCost;
  }
  return it->second.metric;
}

NodeId DistanceVectorIgp::next_hop(NodeId from, NodeId to) const {
  if (from == to) return from;
  const auto& st = state(from);
  const auto it = st.table.find(Prefix::host(network_.topology().router(to).loopback));
  if (it == st.table.end() || it->second.metric >= config_.infinity) {
    return NodeId::invalid();
  }
  return it->second.next_hop;
}

void DistanceVectorIgp::on_link_change(LinkId link_id) {
  const auto& link = network_.topology().link(link_id);
  if (link.interdomain) return;
  if (network_.topology().router(link.a).domain != domain_) return;
  if (!started_) return;

  if (!network_.topology().link_usable(link_id)) {
    // Poison every route that used the dead link, then ask the remaining
    // neighbors for their tables so alternatives are relearned promptly.
    for (const NodeId end : {link.a, link.b}) {
      auto& st = state(end);
      bool lost_any = false;
      for (auto& [prefix, route] : st.table) {
        if (route.out_link == link_id && route.metric < config_.infinity) {
          route.metric = config_.infinity;
          route.changed = true;
          lost_any = true;
        }
      }
      if (lost_any) {
        install_fib(end);
        schedule_triggered(end);
        request_full_tables(end);
      }
    }
  } else {
    // New adjacency: exchange full tables across it.
    send_full_to(link.a, link.b, link_id);
    send_full_to(link.b, link.a, link_id);
  }
}

std::vector<DistanceVectorIgp::AdvertisedRoute> DistanceVectorIgp::routes_for(
    const RouterState& st, NodeId neighbor, bool full) const {
  std::vector<AdvertisedRoute> out;
  for (const auto& [prefix, route] : st.table) {
    if (!full && !route.changed) continue;
    Cost metric = route.metric;
    if (route.next_hop == neighbor && config_.split_horizon) {
      metric = config_.infinity;  // poisoned reverse
    }
    out.push_back(AdvertisedRoute{prefix, metric, route.anycast, route.tags});
  }
  return out;
}

void DistanceVectorIgp::send_update(NodeId router, bool full) {
  auto& st = state(router);
  const auto& topo = network_.topology();
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kIgp,
                       full ? "igp.dv.full_update" : "igp.dv.update",
                       domain_.value(), router.value());
  }
  for (const LinkId link_id : topo.router(router).links) {
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    const NodeId neighbor = link.other_end(router);
    auto routes = routes_for(st, neighbor, full);
    if (routes.empty()) continue;
    ++messages_sent_;
    simulator_.schedule_after(
        link.latency, [this, neighbor, router, link_id, routes = std::move(routes)] {
          if (network_.topology().link_usable(link_id)) {
            receive_update(neighbor, router, link_id, routes);
          }
        });
  }
  for (auto& [prefix, route] : st.table) route.changed = false;
}

void DistanceVectorIgp::send_full_to(NodeId router, NodeId neighbor, LinkId link_id) {
  auto routes = routes_for(state(router), neighbor, /*full=*/true);
  if (routes.empty()) return;
  ++messages_sent_;
  const auto& link = network_.topology().link(link_id);
  simulator_.schedule_after(
      link.latency, [this, neighbor, router, link_id, routes = std::move(routes)] {
        if (network_.topology().link_usable(link_id)) {
          receive_update(neighbor, router, link_id, routes);
        }
      });
}

void DistanceVectorIgp::receive_update(NodeId router, NodeId from, LinkId link_id,
                                       std::vector<AdvertisedRoute> routes) {
  auto& st = state(router);
  const auto& link = network_.topology().link(link_id);
  bool changed_any = false;

  for (const auto& adv : routes) {
    const Cost offered = adv.metric >= config_.infinity
                             ? config_.infinity
                             : std::min<Cost>(adv.metric + link.cost, config_.infinity);
    auto it = st.table.find(adv.prefix);

    if (it == st.table.end()) {
      if (offered >= config_.infinity) continue;
      Route route;
      route.metric = offered;
      route.next_hop = from;
      route.out_link = link_id;
      route.anycast = adv.anycast;
      route.tags = adv.tags;
      route.changed = true;
      st.table.emplace(adv.prefix, route);
      changed_any = true;
      continue;
    }

    Route& current = it->second;
    if (!current.next_hop.valid() && current.metric == 0) {
      continue;  // never displace a live self-originated route
    }
    const bool via_sender = current.next_hop == from;
    const bool better = offered < current.metric ||
                        (offered == current.metric && current.metric < config_.infinity &&
                         !via_sender && from < current.next_hop);
    if (via_sender) {
      // Must accept whatever the current next hop now says (incl. poison).
      if (current.metric != offered || current.tags != adv.tags) {
        const bool worsened = offered > current.metric;
        current.metric = offered;
        current.tags = adv.tags;
        current.changed = true;
        changed_any = true;
        if (offered >= config_.infinity || worsened) {
          // Lost our path — or it got worse: an undisturbed neighbor may
          // hold a better route it will never re-advertise unprompted
          // (triggered-only operation), so solicit full tables. Metrics
          // strictly increase along worsening chains, so the re-request
          // cascade terminates.
          request_full_tables(router);
        }
      }
    } else if (better) {
      current.metric = offered;
      current.next_hop = from;
      current.out_link = link_id;
      current.tags = adv.tags;
      current.changed = true;
      changed_any = true;
    }
  }

  if (changed_any) {
    install_fib(router);
    schedule_triggered(router);
  }
}

void DistanceVectorIgp::request_full_tables(NodeId router) {
  const auto& topo = network_.topology();
  for (const LinkId link_id : topo.router(router).links) {
    const auto& link = topo.link(link_id);
    if (link.interdomain || !topo.link_usable(link_id)) continue;
    const NodeId neighbor = link.other_end(router);
    ++messages_sent_;
    // Round trip: the request travels one latency, the response another.
    simulator_.schedule_after(link.latency, [this, neighbor, router, link_id] {
      if (network_.topology().link_usable(link_id)) {
        send_full_to(neighbor, router, link_id);
      }
    });
  }
}

void DistanceVectorIgp::schedule_triggered(NodeId router) {
  auto& st = state(router);
  if (st.update_pending) return;
  st.update_pending = true;
  simulator_.schedule_after(kTriggeredDelay, [this, router] {
    state(router).update_pending = false;
    send_update(router, /*full=*/false);
  });
}

void DistanceVectorIgp::schedule_periodic(NodeId router) {
  simulator_.schedule_after(config_.periodic_interval, [this, router] {
    send_update(router, /*full=*/true);
    schedule_periodic(router);
  });
}

void DistanceVectorIgp::install_fib(NodeId router) {
  // Swap the whole DV-derived table in atomically; the Fib bumps its route
  // epoch (invalidating the router's compiled forwarding table) only when
  // this update actually changed a route.
  std::vector<FibEntry> routes;
  const auto& st = state(router);
  for (const auto& [prefix, route] : st.table) {
    if (route.metric >= config_.infinity) continue;
    if (!route.next_hop.valid()) continue;  // connected routes already present
    routes.push_back(
        FibEntry{prefix, route.next_hop, route.out_link,
                 route.anycast ? RouteOrigin::kAnycast : RouteOrigin::kIgp,
                 route.metric});
  }
  network_.fib(router).replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast},
                                       routes);
}

}  // namespace evo::igp
