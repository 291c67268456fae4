#include "net/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace evo::net {
namespace {

TEST(Topology, DomainAllocation) {
  Topology topo;
  const auto d0 = topo.add_domain("alpha");
  const auto d1 = topo.add_domain("beta", /*stub=*/true);
  EXPECT_EQ(topo.domain_count(), 2u);
  EXPECT_EQ(topo.domain(d0).name, "alpha");
  EXPECT_FALSE(topo.domain(d0).stub);
  EXPECT_TRUE(topo.domain(d1).stub);
  EXPECT_EQ(topo.domain(d0).prefix.to_string(), "0.1.0.0/16");
  EXPECT_EQ(topo.domain(d1).prefix.to_string(), "0.2.0.0/16");
}

TEST(Topology, RouterLoopbacks) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  EXPECT_EQ(topo.router(r0).loopback.to_string(), "0.1.0.1");
  EXPECT_EQ(topo.router(r1).loopback.to_string(), "0.1.1.1");
  EXPECT_EQ(topo.router(r1).index_in_domain, 1u);
  EXPECT_EQ(topo.domain(d).routers.size(), 2u);
}

TEST(Topology, AddRouterThrowsPastTheAddressPlan) {
  // Index 255's /24 holds anycast addresses, so a domain numbers 255
  // routers; the 256th throws in every build type.
  Topology topo;
  const auto d = topo.add_domain("a");
  for (std::uint32_t i = 0; i < Topology::kMaxRoutersPerDomain; ++i) topo.add_router(d);
  const NodeId last = topo.domain(d).routers.back();
  EXPECT_EQ(topo.router(last).loopback.to_string(), "0.1.254.1");
  EXPECT_THROW(topo.add_router(d), std::out_of_range);
  EXPECT_EQ(topo.domain(d).routers.size(), Topology::kMaxRoutersPerDomain);
}

TEST(Topology, IntraDomainLink) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  const auto l = topo.add_link(r0, r1, 5);
  EXPECT_FALSE(topo.link(l).interdomain);
  EXPECT_EQ(topo.link(l).cost, 5u);
  EXPECT_TRUE(topo.link(l).up);
  EXPECT_EQ(topo.link(l).other_end(r0), r1);
  EXPECT_FALSE(topo.router(r0).border);
}

TEST(Topology, InterdomainLinkSetsBorderAndPeering) {
  Topology topo;
  const auto da = topo.add_domain("a");
  const auto db = topo.add_domain("b");
  const auto ra = topo.add_router(da);
  const auto rb = topo.add_router(db);
  topo.add_interdomain_link(ra, rb, Relationship::kCustomer);
  EXPECT_TRUE(topo.router(ra).border);
  EXPECT_TRUE(topo.router(rb).border);
  // From a's view b is a customer; from b's view a is a provider.
  EXPECT_EQ(topo.relationship(da, db), Relationship::kCustomer);
  EXPECT_EQ(topo.relationship(db, da), Relationship::kProvider);
  EXPECT_FALSE(topo.relationship(da, DomainId{99}).has_value());
}

TEST(Topology, ReverseRelationships) {
  EXPECT_EQ(reverse(Relationship::kCustomer), Relationship::kProvider);
  EXPECT_EQ(reverse(Relationship::kProvider), Relationship::kCustomer);
  EXPECT_EQ(reverse(Relationship::kPeer), Relationship::kPeer);
}

TEST(Topology, HostAddressing) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r = topo.add_router(d);
  const auto h0 = topo.add_host(r);
  const auto h1 = topo.add_host(r);
  EXPECT_EQ(topo.host(h0).address.to_string(), "0.1.0.2");
  EXPECT_EQ(topo.host(h1).address.to_string(), "0.1.0.3");
  EXPECT_EQ(topo.host(h0).access_router, r);
}

TEST(Topology, DomainOfAddress) {
  Topology topo;
  const auto d0 = topo.add_domain("a");
  const auto d1 = topo.add_domain("b");
  EXPECT_EQ(topo.domain_of_address(Ipv4Addr{0, 1, 50, 1}), d0);
  EXPECT_EQ(topo.domain_of_address(Ipv4Addr{0, 2, 0, 1}), d1);
  EXPECT_FALSE(topo.domain_of_address(Ipv4Addr{0, 0, 0, 1}).has_value());
  EXPECT_FALSE(topo.domain_of_address(Ipv4Addr{0, 3, 0, 1}).has_value());
}

TEST(Topology, RouterByLoopback) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  EXPECT_EQ(topo.router_by_loopback(topo.router(r1).loopback), r1);
  EXPECT_EQ(topo.router_by_loopback(topo.router(r0).loopback), r0);
  // Host addresses are not loopbacks.
  const auto h = topo.add_host(r0);
  EXPECT_FALSE(topo.router_by_loopback(topo.host(h).address).has_value());
}

TEST(Topology, HostByAddress) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r = topo.add_router(d);
  const auto h = topo.add_host(r);
  EXPECT_EQ(topo.host_by_address(topo.host(h).address), h);
  EXPECT_FALSE(topo.host_by_address(Ipv4Addr{9, 9, 9, 9}).has_value());
}

TEST(Topology, PhysicalGraphHonorsLinkState) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  const auto l = topo.add_link(r0, r1, 3);
  auto g = topo.physical_graph();
  EXPECT_EQ(g.neighbors(r0).size(), 1u);
  topo.set_link_up(l, false);
  g = topo.physical_graph();
  EXPECT_EQ(g.neighbors(r0).size(), 0u);
}

TEST(Topology, DomainGraphExcludesOtherDomains) {
  Topology topo;
  const auto da = topo.add_domain("a");
  const auto db = topo.add_domain("b");
  const auto a0 = topo.add_router(da);
  const auto a1 = topo.add_router(da);
  const auto b0 = topo.add_router(db);
  topo.add_link(a0, a1, 1);
  topo.add_interdomain_link(a1, b0, Relationship::kPeer);
  const auto g = topo.domain_graph(da);
  EXPECT_EQ(g.neighbors(a0).size(), 1u);
  EXPECT_EQ(g.neighbors(a1).size(), 1u);  // interdomain link excluded
  EXPECT_EQ(g.neighbors(b0).size(), 0u);
}

TEST(Topology, DomainLevelGraph) {
  Topology topo;
  const auto da = topo.add_domain("a");
  const auto db = topo.add_domain("b");
  const auto dc = topo.add_domain("c");
  const auto ra = topo.add_router(da);
  const auto rb = topo.add_router(db);
  const auto rc = topo.add_router(dc);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  topo.add_interdomain_link(rb, rc, Relationship::kCustomer);
  const auto g = topo.domain_level_graph();
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.neighbors(NodeId{db.value()}).size(), 2u);
}

TEST(Topology, RouterSubnetContainsItsHosts) {
  Topology topo;
  const auto d = topo.add_domain("a");
  const auto r = topo.add_router(d);
  const auto h = topo.add_host(r);
  const auto subnet = Topology::router_subnet(d, 0);
  EXPECT_TRUE(subnet.contains(topo.host(h).address));
  EXPECT_TRUE(subnet.contains(topo.router(r).loopback));
}

}  // namespace
}  // namespace evo::net
