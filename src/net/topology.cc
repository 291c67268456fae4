#include "net/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace evo::net {

const char* to_string(Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return "customer";
    case Relationship::kProvider: return "provider";
    case Relationship::kPeer: return "peer";
  }
  return "?";
}

DomainId Topology::add_domain(std::string name, bool stub) {
  const DomainId id{static_cast<std::uint32_t>(domains_.size())};
  Domain d;
  d.id = id;
  d.name = std::move(name);
  d.prefix = domain_prefix(id);
  d.stub = stub;
  domains_.push_back(std::move(d));
  return id;
}

NodeId Topology::add_router(DomainId domain) {
  assert(domain.value() < domains_.size());
  const NodeId id{static_cast<std::uint32_t>(routers_.size())};
  Router r;
  r.id = id;
  r.domain = domain;
  r.index_in_domain = static_cast<std::uint32_t>(domains_[domain.value()].routers.size());
  if (r.index_in_domain >= kMaxRoutersPerDomain) {
    throw std::out_of_range("Topology::add_router: the address plan numbers at most " +
                            std::to_string(kMaxRoutersPerDomain) +
                            " routers per domain");
  }
  r.loopback = router_loopback(domain, r.index_in_domain);
  routers_.push_back(std::move(r));
  domains_[domain.value()].routers.push_back(id);
  ++epoch_;
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, Cost cost, sim::Duration latency) {
  assert(a.value() < routers_.size() && b.value() < routers_.size());
  assert(routers_[a.value()].domain == routers_[b.value()].domain &&
         "use add_interdomain_link for links between domains");
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  links_.push_back(Link{id, a, b, cost, latency, /*up=*/true, /*interdomain=*/false});
  routers_[a.value()].links.push_back(id);
  routers_[b.value()].links.push_back(id);
  ++epoch_;
  return id;
}

LinkId Topology::add_interdomain_link(NodeId a, NodeId b, Relationship rel,
                                      Cost cost, sim::Duration latency) {
  assert(a.value() < routers_.size() && b.value() < routers_.size());
  auto& ra = routers_[a.value()];
  auto& rb = routers_[b.value()];
  assert(ra.domain != rb.domain && "use add_link for intra-domain links");
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  links_.push_back(Link{id, a, b, cost, latency, /*up=*/true, /*interdomain=*/true});
  ra.links.push_back(id);
  rb.links.push_back(id);
  ra.border = true;
  rb.border = true;
  domains_[ra.domain.value()].peerings.push_back(Peering{rb.domain, rel, id});
  domains_[rb.domain.value()].peerings.push_back(Peering{ra.domain, reverse(rel), id});
  ++epoch_;
  return id;
}

HostId Topology::add_host(NodeId access_router) {
  assert(access_router.value() < routers_.size());
  const auto& r = routers_[access_router.value()];
  // Count existing hosts on this access router to pick the next address.
  std::uint32_t attached = 0;
  for (const auto& h : hosts_) {
    if (h.access_router == access_router) ++attached;
  }
  assert(attached < 253 && "router subnet exhausted");
  const HostId id{static_cast<std::uint32_t>(hosts_.size())};
  const Ipv4Addr addr{router_subnet(r.domain, r.index_in_domain).address().bits() |
                      (attached + 2)};
  hosts_.push_back(Host{id, access_router, addr});
  ++epoch_;
  return id;
}

bool Topology::set_link_up(LinkId link, bool up) {
  if (!link.valid() || link.value() >= links_.size()) {
    throw std::out_of_range("Topology::set_link_up: LinkId " +
                            std::to_string(link.value()) + " out of range");
  }
  Link& l = links_[link.value()];
  if (l.up == up) return false;
  l.up = up;
  ++epoch_;
  return true;
}

bool Topology::set_node_up(NodeId node, bool up) {
  if (!node.valid() || node.value() >= routers_.size()) {
    throw std::out_of_range("Topology::set_node_up: NodeId " +
                            std::to_string(node.value()) + " out of range");
  }
  Router& r = routers_[node.value()];
  if (r.up == up) return false;
  r.up = up;
  ++epoch_;
  return true;
}

std::optional<Relationship> Topology::relationship(DomainId domain,
                                                   DomainId neighbor) const {
  for (const auto& p : domains_[domain.value()].peerings) {
    if (p.neighbor == neighbor) return p.relationship;
  }
  return std::nullopt;
}

std::optional<DomainId> Topology::domain_of_address(Ipv4Addr addr) const {
  // Allocation is deterministic: the /16 index identifies the domain.
  const std::uint32_t slot = addr.bits() >> 16;
  if (slot == 0 || slot > domains_.size()) return std::nullopt;
  const DomainId id{slot - 1};
  assert(domains_[id.value()].prefix.contains(addr));
  return id;
}

std::optional<NodeId> Topology::router_by_loopback(Ipv4Addr addr) const {
  const auto domain = domain_of_address(addr);
  if (!domain) return std::nullopt;
  const std::uint32_t index = (addr.bits() >> 8) & 0xFF;
  const auto& d = domains_[domain->value()];
  if (index >= d.routers.size()) return std::nullopt;
  const NodeId node = d.routers[index];
  if (routers_[node.value()].loopback != addr) return std::nullopt;
  return node;
}

std::optional<HostId> Topology::host_by_address(Ipv4Addr addr) const {
  // Hosts are few per experiment; linear scan keeps the structure simple.
  for (const auto& h : hosts_) {
    if (h.address == addr) return h.id;
  }
  return std::nullopt;
}

Graph Topology::physical_graph() const {
  Graph g(routers_.size());
  for (const auto& link : links_) {
    if (!link_usable(link.id)) continue;
    g.add_undirected_edge(link.a, link.b, link.cost, link.id);
  }
  return g;
}

Graph Topology::domain_graph(DomainId domain) const {
  Graph g(routers_.size());
  for (const auto& link : links_) {
    if (!link_usable(link.id) || link.interdomain) continue;
    if (routers_[link.a.value()].domain != domain) continue;
    g.add_undirected_edge(link.a, link.b, link.cost, link.id);
  }
  return g;
}

Graph Topology::domain_level_graph() const {
  Graph g(domains_.size());
  for (const auto& link : links_) {
    if (!link_usable(link.id) || !link.interdomain) continue;
    const auto da = routers_[link.a.value()].domain;
    const auto db = routers_[link.b.value()].domain;
    g.add_undirected_edge(NodeId{da.value()}, NodeId{db.value()}, 1, link.id);
  }
  return g;
}

}  // namespace evo::net
