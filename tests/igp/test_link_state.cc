#include "igp/link_state.h"

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
  explicit Fixture(net::Topology topo)
      : network(std::move(topo)),
        igp(simulator, network, DomainId{0}) {}

  void converge() {
    igp.start();
    simulator.run();
  }

  sim::Simulator simulator;
  net::Network network;
  LinkStateIgp igp;
};

TEST(LinkStateIgp, ConvergesOnLine) {
  Fixture f(net::single_domain_line(4, 2));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  // Distances match the oracle.
  EXPECT_EQ(f.igp.distance(routers[0], routers[3]), 6u);
  EXPECT_EQ(f.igp.distance(routers[3], routers[0]), 6u);
  EXPECT_EQ(f.igp.distance(routers[1], routers[1]), 0u);
  // Next hops walk the line.
  EXPECT_EQ(next_hop(f.network, routers[0], routers[3]), routers[1]);
  EXPECT_EQ(next_hop(f.network, routers[3], routers[0]), routers[2]);
}

TEST(LinkStateIgp, FibRoutesInstalledEverywhere) {
  Fixture f(net::single_domain_line(4));
  f.converge();
  const auto& topo = f.network.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  for (const NodeId src : routers) {
    for (const NodeId dst : routers) {
      const auto result = f.network.trace(src, topo.router(dst).loopback);
      EXPECT_TRUE(result.delivered()) << src.value() << "->" << dst.value();
      EXPECT_EQ(result.delivered_at, dst);
    }
  }
}

TEST(LinkStateIgp, TracesFollowShortestPaths) {
  Fixture f(net::single_domain_grid(4, 4));
  f.converge();
  const auto& topo = f.network.topology();
  const auto oracle = net::dijkstra(topo.physical_graph(),
                                    topo.domain(DomainId{0}).routers[0]);
  for (const NodeId dst : topo.domain(DomainId{0}).routers) {
    const auto result = f.network.trace(topo.domain(DomainId{0}).routers[0],
                                        topo.router(dst).loopback);
    ASSERT_TRUE(result.delivered());
    EXPECT_EQ(result.cost, oracle.distance_to(dst));
  }
}

TEST(LinkStateIgp, LinkFailureReconverges) {
  Fixture f(net::single_domain_ring(5));
  f.converge();
  const auto& topo = f.network.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  // Break the direct 0-1 edge; traffic must go the long way.
  ASSERT_EQ(f.igp.distance(routers[0], routers[1]), 1u);
  f.network.topology().set_link_up(LinkId{0}, false);
  f.igp.on_link_change(LinkId{0});
  f.simulator.run();
  EXPECT_EQ(f.igp.distance(routers[0], routers[1]), 4u);
  const auto result = f.network.trace(routers[0], topo.router(routers[1]).loopback);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.cost, 4u);
}

TEST(LinkStateIgp, LinkRecoveryRestoresShortPath) {
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

TEST(LinkStateIgp, MemberDiscoverySupported) {
  Fixture f(net::single_domain_line(4));
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

TEST(LinkStateIgp, MembershipChangeAfterStartPropagates) {
  Fixture f(net::single_domain_line(3));
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.igp.add_anycast_member(routers[2], anycast);
  f.simulator.run();
  EXPECT_EQ(f.igp.discovered_members(routers[0], anycast).size(), 1u);
  f.igp.remove_anycast_member(routers[2], anycast);
  f.simulator.run();
  EXPECT_TRUE(f.igp.discovered_members(routers[0], anycast).empty());
}

TEST(LinkStateIgp, AnycastRoutesToClosestMember) {
  Fixture f(net::single_domain_line(5));
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.network.add_local_address(routers[0], anycast);
  f.network.add_local_address(routers[4], anycast);
  f.igp.add_anycast_member(routers[0], anycast);
  f.igp.add_anycast_member(routers[4], anycast);
  f.converge();
  // Router 1 is closer to member 0; router 3 closer to member 4.
  const auto r1 = f.network.trace(routers[1], anycast);
  ASSERT_TRUE(r1.delivered());
  EXPECT_EQ(r1.delivered_at, routers[0]);
  const auto r3 = f.network.trace(routers[3], anycast);
  ASSERT_TRUE(r3.delivered());
  EXPECT_EQ(r3.delivered_at, routers[4]);
}

TEST(LinkStateIgp, AnycastEquidistantTieIsDeterministic) {
  Fixture f(net::single_domain_line(5));
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  f.network.add_local_address(routers[0], anycast);
  f.network.add_local_address(routers[4], anycast);
  f.igp.add_anycast_member(routers[0], anycast);
  f.igp.add_anycast_member(routers[4], anycast);
  f.converge();
  // Router 2 is equidistant; the lower NodeId member must win.
  const auto r2 = f.network.trace(routers[2], anycast);
  ASSERT_TRUE(r2.delivered());
  EXPECT_EQ(r2.delivered_at, routers[0]);
}

TEST(LinkStateIgp, MemberRemovalFailsOverToOther) {
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
  const auto r1 = f.network.trace(routers[1], anycast);
  ASSERT_TRUE(r1.delivered());
  EXPECT_EQ(r1.delivered_at, routers[4]);
}

TEST(LinkStateIgp, HighCostStubDoesNotChangeWinner) {
  // The stub cost is added to every member, so the IGP-closest member
  // still wins and the route's metric carries the stub on top.
  sim::Simulator simulator;
  net::Network network(net::single_domain_line(5));
  LinkStateIgp igp(simulator, network, DomainId{0});
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 1};
  network.add_local_address(routers[0], anycast);
  network.add_local_address(routers[3], anycast);
  igp.add_anycast_member(routers[0], anycast);
  igp.add_anycast_member(routers[3], anycast);
  igp.start();
  simulator.run();
  const auto result = network.trace(routers[2], anycast);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[3]);
  const auto* entry = network.fib(routers[2]).find(net::Prefix::host(anycast));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->metric, 1 + kAnycastStubCost);
}

TEST(LinkStateIgp, ParallelLinksUseTheCheaper) {
  // A cost-5 link, then a cost-1 link between the same two routers: the
  // route must leave on the cost-1 link, so its trace costs 1.
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

TEST(LinkStateIgp, MessageAndSpfCountsAdvance) {
  Fixture f(net::single_domain_ring(4));
  f.converge();
  EXPECT_GT(f.igp.messages_sent(), 0u);
  EXPECT_GT(f.igp.spf_runs(), 0u);
  const auto before = f.igp.messages_sent();
  f.network.topology().set_link_up(LinkId{0}, false);
  f.igp.on_link_change(LinkId{0});
  f.simulator.run();
  EXPECT_GT(f.igp.messages_sent(), before);
}

TEST(LinkStateIgp, PartitionedDomainUnreachable) {
  net::Topology topo;
  const auto d = topo.add_domain("split");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  const auto r2 = topo.add_router(d);
  const auto r3 = topo.add_router(d);
  topo.add_link(r0, r1, 1);
  topo.add_link(r2, r3, 1);  // r0,r1 | r2,r3 disconnected
  Fixture f(std::move(topo));
  f.converge();
  EXPECT_EQ(f.igp.distance(r0, r1), 1u);
  EXPECT_EQ(f.igp.distance(r0, r2), net::kInfiniteCost);
  EXPECT_EQ(next_hop(f.network, r0, r3), NodeId::invalid());
}

}  // namespace
}  // namespace evo::igp
