// The physical multi-provider topology: ISP domains, routers, links, hosts.
//
// Address allocation mirrors provider-based allocation in the real
// Internet: each domain owns a /16 slice, each router a /24 slice of that,
// endhosts get addresses under their access router's slice. Inter-domain
// links carry a business relationship (customer / provider / peer) because
// the paper's mechanisms interact with policy routing ("ISP W might, based
// on peering policies, choose to route anycast packets to ISP X before Y").
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/graph.h"
#include "net/ids.h"
#include "sim/time.h"

namespace evo::net {

/// Business relationship of a neighboring domain, from the local domain's
/// point of view (Gao-Rexford model).
enum class Relationship : std::uint8_t {
  kCustomer,  // the neighbor pays us
  kProvider,  // we pay the neighbor
  kPeer,      // settlement-free peer
};

const char* to_string(Relationship rel);

/// The reciprocal of a relationship (a's view given b's view).
constexpr Relationship reverse(Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return Relationship::kProvider;
    case Relationship::kProvider: return Relationship::kCustomer;
    case Relationship::kPeer: return Relationship::kPeer;
  }
  return Relationship::kPeer;
}

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  Cost cost = 1;
  sim::Duration latency = sim::Duration::millis(1);
  bool up = true;
  bool interdomain = false;

  NodeId other_end(NodeId node) const { return node == a ? b : a; }
};

struct Router {
  NodeId id;
  DomainId domain;
  std::uint32_t index_in_domain = 0;  // dense per-domain index
  Ipv4Addr loopback;
  std::vector<LinkId> links;
  bool border = false;  // has at least one inter-domain link
  /// False while the router is crashed: it forwards nothing, delivers
  /// nothing locally, and every incident link is unusable.
  bool up = true;
};

struct Peering {
  DomainId neighbor;
  Relationship relationship = Relationship::kPeer;
  LinkId link;  // the physical link implementing this peering
};

struct Domain {
  DomainId id;
  std::string name;
  Prefix prefix;  // the domain's provider-allocated address block
  std::vector<NodeId> routers;
  std::vector<Peering> peerings;
  /// Stub domains host clients; transit domains carry traffic.
  bool stub = false;
};

struct Host {
  HostId id;
  NodeId access_router;
  Ipv4Addr address;
};

class Topology {
 public:
  Topology() = default;

  /// The address plan's limits: domain d owns /16 number d + 1, and its
  /// routers the /24s 0..254 of it (255 holds anycast addresses).
  static constexpr std::uint32_t kMaxDomains = 0xFFFF;
  static constexpr std::uint32_t kMaxRoutersPerDomain = 255;

  // --- construction -------------------------------------------------------
  DomainId add_domain(std::string name, bool stub = false);
  /// Throws std::out_of_range past kMaxRoutersPerDomain routers in
  /// `domain` (checked in all build types).
  NodeId add_router(DomainId domain);

  /// Intra-domain link; both ends must be in the same domain.
  LinkId add_link(NodeId a, NodeId b, Cost cost = 1,
                  sim::Duration latency = sim::Duration::millis(1));

  /// Inter-domain link; `rel` is b's relationship as seen from a's domain
  /// (kCustomer means b's domain is a customer of a's domain).
  LinkId add_interdomain_link(NodeId a, NodeId b, Relationship rel,
                              Cost cost = 1,
                              sim::Duration latency = sim::Duration::millis(5));

  HostId add_host(NodeId access_router);

  // --- failure primitives --------------------------------------------------
  /// Set a link's administrative state. Returns whether the stored state
  /// actually changed, so callers can skip reconvergence on no-op flaps.
  /// Throws std::out_of_range for an invalid LinkId (checked in all build
  /// types, not assert-only).
  bool set_link_up(LinkId link, bool up);

  /// Crash (up=false) or recover (up=true) a router. Returns whether the
  /// stored state changed. Throws std::out_of_range for an invalid NodeId.
  bool set_node_up(NodeId node, bool up);

  /// A link carries traffic only when it is administratively up AND both
  /// endpoint routers are up — the single predicate every consumer
  /// (forwarding, flooding, session liveness, derived graphs) must use.
  bool link_usable(LinkId link) const {
    const Link& l = links_[link.value()];
    return l.up && routers_[l.a.value()].up && routers_[l.b.value()].up;
  }

  /// Moves on every change forwarding reads from the topology: a router,
  /// link or host added, and a link or router whose up state changed.
  /// Never decreases, so state derived from the topology (Network's leg
  /// cache) can tell when to recompute.
  std::uint64_t epoch() const { return epoch_; }

  // --- accessors ----------------------------------------------------------
  std::size_t domain_count() const { return domains_.size(); }
  std::size_t router_count() const { return routers_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::size_t host_count() const { return hosts_.size(); }

  const Domain& domain(DomainId id) const { return domains_[id.value()]; }
  const Router& router(NodeId id) const { return routers_[id.value()]; }
  const Link& link(LinkId id) const { return links_[id.value()]; }
  const Host& host(HostId id) const { return hosts_[id.value()]; }

  const std::vector<Domain>& domains() const { return domains_; }
  const std::vector<Router>& routers() const { return routers_; }
  const std::vector<Link>& links() const { return links_; }
  const std::vector<Host>& hosts() const { return hosts_; }

  /// The relationship of `neighbor` from `domain`'s point of view, if the
  /// two domains have any peering.
  std::optional<Relationship> relationship(DomainId domain, DomainId neighbor) const;

  /// The domain owning the longest matching allocation for `addr`, if any.
  std::optional<DomainId> domain_of_address(Ipv4Addr addr) const;

  /// The router whose loopback is `addr`, if any.
  std::optional<NodeId> router_by_loopback(Ipv4Addr addr) const;

  /// The host with address `addr`, if any.
  std::optional<HostId> host_by_address(Ipv4Addr addr) const;

  // --- address allocation scheme -----------------------------------------
  static Prefix domain_prefix(DomainId id) {
    // Domain d owns (d+1).0.0.0-style /16 carved out of a flat space.
    return Prefix{Ipv4Addr{(id.value() + 1) << 16}, 16};
  }
  static Ipv4Addr router_loopback(DomainId d, std::uint32_t router_index) {
    assert(router_index < kMaxRoutersPerDomain);
    return Ipv4Addr{domain_prefix(d).address().bits() | (router_index << 8) | 1};
  }
  static Prefix router_subnet(DomainId d, std::uint32_t router_index) {
    return Prefix{Ipv4Addr{domain_prefix(d).address().bits() | (router_index << 8)},
                  24};
  }

  // --- derived graphs ------------------------------------------------------
  /// Weighted graph over all routers, honoring link up/down state.
  Graph physical_graph() const;

  /// Weighted graph restricted to one domain's routers and intra-domain
  /// links. Node indices are global NodeIds (the graph is sized to all
  /// routers; other domains' nodes are simply isolated).
  Graph domain_graph(DomainId domain) const;

  /// Domain-level graph: one node per domain, an edge per peering.
  Graph domain_level_graph() const;

 private:
  std::vector<Domain> domains_;
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<Host> hosts_;
  std::uint64_t epoch_ = 0;
};

}  // namespace evo::net
