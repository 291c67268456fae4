#include "igp/distance_vector.h"

#include <gtest/gtest.h>

#include "net/topology_gen.h"

namespace evo::igp {
namespace {

using net::DomainId;
using net::LinkId;
using net::NodeId;

/// `from`'s next hop toward `to`: its FIB entry for `to`'s loopback.
NodeId next_hop(const net::Network& network, NodeId from, NodeId to) {
  const auto* entry =
      network.fib(from).find(net::Prefix::host(network.topology().router(to).loopback));
  return entry == nullptr ? NodeId::invalid() : entry->next_hop;
}

struct Fixture {
  explicit Fixture(net::Topology topo, bool tagged_advertisements = false,
                   DistanceVectorConfig config = {})
      : network(std::move(topo)),
        igp(simulator, network, DomainId{0}, tagged_advertisements, config) {}

  void converge() {
    igp.start();
    simulator.run();
  }

  sim::Simulator simulator;
  net::Network network;
  DistanceVectorIgp igp;
};

TEST(DistanceVectorIgp, ConvergesOnLine) {
  Fixture f(net::single_domain_line(4, 2));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  EXPECT_EQ(f.igp.distance(routers[0], routers[3]), 6u);
  EXPECT_EQ(f.igp.distance(routers[3], routers[0]), 6u);
  EXPECT_EQ(next_hop(f.network, routers[0], routers[3]), routers[1]);
}

TEST(DistanceVectorIgp, MatchesOracleOnGrid) {
  Fixture f(net::single_domain_grid(4, 3));
  f.converge();
  const auto& topo = f.network.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  const auto oracle = net::dijkstra(topo.physical_graph(), routers[0]);
  for (const NodeId dst : routers) {
    EXPECT_EQ(f.igp.distance(routers[0], dst), oracle.distance_to(dst))
        << "to " << dst.value();
  }
}

TEST(DistanceVectorIgp, FibDeliversEverywhere) {
  Fixture f(net::single_domain_ring(6));
  f.converge();
  const auto& topo = f.network.topology();
  for (const NodeId src : topo.domain(DomainId{0}).routers) {
    for (const NodeId dst : topo.domain(DomainId{0}).routers) {
      const auto result = f.network.trace(src, topo.router(dst).loopback);
      EXPECT_TRUE(result.delivered()) << src.value() << "->" << dst.value();
    }
  }
}

TEST(DistanceVectorIgp, LinkFailureTriggersReconvergence) {
  Fixture f(net::single_domain_ring(5));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  ASSERT_EQ(f.igp.distance(routers[0], routers[1]), 1u);
  f.network.topology().set_link_up(LinkId{0}, false);
  f.igp.on_link_change(LinkId{0});
  f.simulator.run();
  EXPECT_EQ(f.igp.distance(routers[0], routers[1]), 4u);
}

TEST(DistanceVectorIgp, LinkRecoveryRestores) {
  Fixture f(net::single_domain_ring(5));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.network.topology().set_link_up(LinkId{0}, false);
  f.igp.on_link_change(LinkId{0});
  f.simulator.run();
  f.network.topology().set_link_up(LinkId{0}, true);
  f.igp.on_link_change(LinkId{0});
  f.simulator.run();
  EXPECT_EQ(f.igp.distance(routers[0], routers[1]), 1u);
}

TEST(DistanceVectorIgp, UnreachableAfterPartition) {
  Fixture f(net::single_domain_line(3));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.network.topology().set_link_up(LinkId{1}, false);
  f.igp.on_link_change(LinkId{1});
  f.simulator.run();
  EXPECT_EQ(f.igp.distance(routers[0], routers[2]), net::kInfiniteCost);
  EXPECT_EQ(next_hop(f.network, routers[0], routers[2]), NodeId::invalid());
}

TEST(DistanceVectorIgp, ParallelLinksUseTheCheaper) {
  // A cost-5 link, then a cost-1 link between the same two routers: the
  // offer over the cost-1 link is a different route, not a new metric for
  // the cost-5 one, so the route must leave on the cost-1 link.
  net::Topology topo;
  const auto d = topo.add_domain("parallel");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  topo.add_link(r0, r1, 5);
  const auto cheap = topo.add_link(r0, r1, 1);
  Fixture f(std::move(topo));
  f.converge();
  EXPECT_EQ(f.igp.distance(r0, r1), 1u);
  const auto loopback = f.network.topology().router(r1).loopback;
  const auto* entry = f.network.fib(r0).find(net::Prefix::host(loopback));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->metric, 1u);
  EXPECT_EQ(entry->out_link, cheap);
  const auto trace = f.network.trace(r0, loopback);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.cost, 1u);
}

TEST(DistanceVectorIgp, PlainModeCannotDiscoverMembers) {
  Fixture f(net::single_domain_line(3));
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.igp.add_anycast_member(routers[2], anycast);
  f.converge();
  // "unlike link-state routing, an IPvN router cannot easily identify
  // other IPvN routers" — plain DV has no discovery.
  EXPECT_FALSE(f.igp.supports_member_discovery());
  EXPECT_TRUE(f.igp.discovered_members(routers[0], anycast).empty());
  // But anycast *routing* still works (zero-distance advertisement).
  f.network.add_local_address(routers[2], anycast);
  const auto result = f.network.trace(routers[0], anycast);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[2]);
}

TEST(DistanceVectorIgp, TaggedModeDiscoversMembers) {
  Fixture f(net::single_domain_line(4), /*tagged_advertisements=*/true);
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.igp.add_anycast_member(routers[1], anycast);
  f.igp.add_anycast_member(routers[3], anycast);
  f.converge();
  EXPECT_TRUE(f.igp.supports_member_discovery());
  const auto members = f.igp.discovered_members(routers[0], anycast);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], routers[1]);
  EXPECT_EQ(members[1], routers[3]);
}

TEST(DistanceVectorIgp, TaggedMembershipRemovalPropagates) {
  Fixture f(net::single_domain_line(3), /*tagged_advertisements=*/true);
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.igp.add_anycast_member(routers[2], anycast);
  f.converge();
  ASSERT_EQ(f.igp.discovered_members(routers[0], anycast).size(), 1u);
  f.igp.remove_anycast_member(routers[2], anycast);
  f.simulator.run();
  EXPECT_TRUE(f.igp.discovered_members(routers[0], anycast).empty());
}

TEST(DistanceVectorIgp, AnycastClosestMemberWins) {
  Fixture f(net::single_domain_line(5));
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.network.add_local_address(routers[0], anycast);
  f.network.add_local_address(routers[4], anycast);
  f.igp.add_anycast_member(routers[0], anycast);
  f.igp.add_anycast_member(routers[4], anycast);
  f.converge();
  EXPECT_EQ(f.network.trace(routers[1], anycast).delivered_at, routers[0]);
  EXPECT_EQ(f.network.trace(routers[3], anycast).delivered_at, routers[4]);
}

TEST(DistanceVectorIgp, MemberRemovalFailsOver) {
  Fixture f(net::single_domain_line(5));
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.network.add_local_address(routers[0], anycast);
  f.network.add_local_address(routers[4], anycast);
  f.igp.add_anycast_member(routers[0], anycast);
  f.igp.add_anycast_member(routers[4], anycast);
  f.converge();
  f.igp.remove_anycast_member(routers[0], anycast);
  f.network.remove_local_address(routers[0], anycast);
  f.simulator.run();
  const auto result = f.network.trace(routers[1], anycast);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[4]);
}

TEST(DistanceVectorIgp, InfinityBoundsCountToInfinity) {
  DistanceVectorConfig config;
  config.infinity = 16;
  Fixture f(net::single_domain_line(3), /*tagged_advertisements=*/false, config);
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  // Cut r2 off; r0/r1 must converge to "unreachable" within finite events.
  f.network.topology().set_link_up(LinkId{1}, false);
  f.igp.on_link_change(LinkId{1});
  const auto events = f.simulator.run();
  EXPECT_LT(events, 10000u);  // bounded, no endless counting
  EXPECT_EQ(f.igp.distance(routers[0], routers[2]), net::kInfiniteCost);
}

TEST(DistanceVectorIgp, MessagesCounted) {
  Fixture f(net::single_domain_line(3));
  f.converge();
  EXPECT_GT(f.igp.messages_sent(), 0u);
}

}  // namespace
}  // namespace evo::igp
