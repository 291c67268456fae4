#include "anycast/anycast.h"

#include <gtest/gtest.h>

#include <memory>

#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::anycast {
namespace {

using net::DomainId;
using net::GroupId;
using net::Ipv4Addr;
using net::NodeId;
using net::Relationship;
using net::Topology;

struct Fixture {
  explicit Fixture(Topology topo) : network(std::move(topo)) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, network, domain.id));
    }
    bgp = std::make_unique<bgp::BgpSystem>(
        simulator, network,
        [this](DomainId d) -> const igp::Igp* { return igps[d.value()].get(); });
    service = std::make_unique<AnycastService>(
        network, bgp.get(),
        [this](DomainId d) -> igp::Igp* { return igps[d.value()].get(); });
  }

  void start() {
    for (auto& igp : igps) igp->start();
    bgp->start();
    converge();
  }

  void converge() {
    simulator.run();
    bgp->install_routes();
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::LinkStateIgp>> igps;
  std::unique_ptr<bgp::BgpSystem> bgp;
  std::unique_ptr<AnycastService> service;
};

/// Line of three domains a - b - c (providers left to right), 2 routers
/// each.
Topology domain_line3() {
  Topology topo;
  std::vector<std::vector<NodeId>> r;
  for (const char* name : {"a", "b", "c"}) {
    const auto d = topo.add_domain(name);
    r.push_back({topo.add_router(d), topo.add_router(d)});
    topo.add_link(r.back()[0], r.back()[1], 1);
  }
  topo.add_interdomain_link(r[0][1], r[1][0], Relationship::kProvider);
  topo.add_interdomain_link(r[1][1], r[2][0], Relationship::kProvider);
  return topo;
}

TEST(AnycastService, GlobalModeAddressFromDedicatedBlock) {
  Fixture f(domain_line3());
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  EXPECT_TRUE(AnycastService::global_anycast_block().contains(
      f.service->group(g).address));
}

TEST(AnycastService, DefaultModeAddressFromDefaultDomain) {
  Fixture f(domain_line3());
  GroupConfig config;
  config.mode = InterDomainMode::kDefaultRoute;
  config.default_domain = DomainId{1};
  const auto g = f.service->create_group(config);
  EXPECT_TRUE(f.network.topology().domain(DomainId{1}).prefix.contains(
      f.service->group(g).address));
}

TEST(AnycastService, DistinctAddressesPerGroup) {
  Fixture f(domain_line3());
  GroupConfig global;
  global.mode = InterDomainMode::kGlobalRoutes;
  GroupConfig dflt;
  dflt.mode = InterDomainMode::kDefaultRoute;
  dflt.default_domain = DomainId{0};
  const auto g1 = f.service->create_group(global);
  const auto g2 = f.service->create_group(global);
  const auto g3 = f.service->create_group(dflt);
  const auto g4 = f.service->create_group(dflt);
  EXPECT_NE(f.service->group(g1).address, f.service->group(g2).address);
  EXPECT_NE(f.service->group(g3).address, f.service->group(g4).address);
}

TEST(AnycastService, MemberLocalDeliveryRegistered) {
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  const NodeId member = f.network.topology().domain(DomainId{0}).routers[0];
  f.service->add_member(g, member);
  EXPECT_TRUE(f.network.has_local_address(member, f.service->group(g).address));
  f.service->remove_member(g, member);
  EXPECT_FALSE(f.network.has_local_address(member, f.service->group(g).address));
}

TEST(AnycastService, GlobalModeOriginatesIntoBgp) {
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.converge();
  // Distant domain c sees the /32 in BGP.
  const NodeId c_border = topo.domain(DomainId{2}).routers[0];
  const auto* route =
      f.bgp->best_route(c_border, net::Prefix::host(f.service->group(g).address));
  ASSERT_NE(route, nullptr);
  EXPECT_TRUE(route->anycast);
}

TEST(AnycastService, GlobalModeWithdrawsWhenLastMemberLeaves) {
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  const NodeId m0 = topo.domain(DomainId{0}).routers[0];
  const NodeId m1 = topo.domain(DomainId{0}).routers[1];
  f.service->add_member(g, m0);
  f.service->add_member(g, m1);
  f.converge();
  const auto host_route = net::Prefix::host(f.service->group(g).address);
  const NodeId c_border = topo.domain(DomainId{2}).routers[0];
  ASSERT_NE(f.bgp->best_route(c_border, host_route), nullptr);
  // One member leaves: still originated (m1 remains).
  f.service->remove_member(g, m0);
  f.converge();
  ASSERT_NE(f.bgp->best_route(c_border, host_route), nullptr);
  // Last member leaves: withdrawn.
  f.service->remove_member(g, m1);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(c_border, host_route), nullptr);
}

TEST(AnycastService, OnlyBordersReachingAMemberOriginate) {
  // Member domain m: member - near - far, with a border at each end. Once
  // far loses IGP reachability to the member it must stop originating,
  // while near keeps doing so.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto x = topo.add_domain("x");
  const auto y = topo.add_domain("y");
  const NodeId member = topo.add_router(m);
  const NodeId near = topo.add_router(m);
  const NodeId far = topo.add_router(m);
  topo.add_link(member, near);
  const auto cut = topo.add_link(near, far);
  topo.add_interdomain_link(near, topo.add_router(x), Relationship::kCustomer);
  topo.add_interdomain_link(far, topo.add_router(y), Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  f.service->add_member(g, member);
  f.converge();
  const auto host_route = net::Prefix::host(f.service->group(g).address);
  const auto originates = [&](NodeId border) {
    const auto* route = f.bgp->best_route(border, host_route);
    return route != nullptr && route->learned == bgp::LearnedFrom::kSelf;
  };
  EXPECT_TRUE(originates(near));
  EXPECT_TRUE(originates(far));

  f.network.topology().set_link_up(cut, false);
  f.igps[m.value()]->on_link_change(cut);
  f.simulator.run();
  EXPECT_TRUE(f.service->sync_reachability());
  f.converge();
  EXPECT_TRUE(originates(near));
  EXPECT_FALSE(originates(far));

  f.network.topology().set_link_up(cut, true);
  f.igps[m.value()]->on_link_change(cut);
  f.simulator.run();
  EXPECT_TRUE(f.service->sync_reachability());
  f.converge();
  EXPECT_TRUE(originates(far));
}

TEST(AnycastService, DefaultModeNoGlobalOrigination) {
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kDefaultRoute;
  config.default_domain = DomainId{0};
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.converge();
  // No /32 anywhere in BGP: the default domain's aggregate covers it.
  const NodeId c_border = topo.domain(DomainId{2}).routers[0];
  EXPECT_EQ(
      f.bgp->best_route(c_border, net::Prefix::host(f.service->group(g).address)),
      nullptr);
  // Yet packets still reach the member by following the aggregate.
  const auto trace = f.network.trace(c_border, f.service->group(g).address);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.delivered_at, topo.domain(DomainId{0}).routers[0]);
}

TEST(AnycastService, TransitMemberDomainCapturesEnRoute) {
  // Default domain a; member also in transit domain b. Packets from c
  // toward a's space pass through b and must be captured there.
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kDefaultRoute;
  config.default_domain = DomainId{0};
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.service->add_member(g, topo.domain(DomainId{1}).routers[0]);
  f.converge();
  const NodeId c_border = topo.domain(DomainId{2}).routers[0];
  const auto trace = f.network.trace(c_border, f.service->group(g).address);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(topo.router(trace.delivered_at).domain, DomainId{1});
}

TEST(AnycastService, PeerAdvertisementWidensCatchment) {
  // Default a; member domain c (far side). Without peering, b's packets
  // flow to a. With c peer-advertising to b, b's packets reach c.
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kDefaultRoute;
  config.default_domain = DomainId{0};
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.service->add_member(g, topo.domain(DomainId{2}).routers[1]);
  f.converge();
  const NodeId b_probe = topo.domain(DomainId{1}).routers[1];
  const auto before = f.network.trace(b_probe, f.service->group(g).address);
  ASSERT_TRUE(before.delivered());
  EXPECT_EQ(topo.router(before.delivered_at).domain, DomainId{0});

  f.service->advertise_via_peering(g, DomainId{2}, DomainId{1});
  f.converge();
  const auto after = f.network.trace(b_probe, f.service->group(g).address);
  ASSERT_TRUE(after.delivered());
  EXPECT_EQ(topo.router(after.delivered_at).domain, DomainId{2});

  // Withdrawing the peering restores the default flow.
  f.service->stop_peering_advertisement(g, DomainId{2}, DomainId{1});
  f.converge();
  const auto restored = f.network.trace(b_probe, f.service->group(g).address);
  ASSERT_TRUE(restored.delivered());
  EXPECT_EQ(topo.router(restored.delivered_at).domain, DomainId{0});
}

TEST(AnycastService, PeerAdvertisementDoesNotLeakBeyondNeighbor) {
  // c peer-advertises to b only; a (and the default's own space) must not
  // see the /32 route.
  Fixture f(domain_line3());
  f.start();
  GroupConfig config;
  config.mode = InterDomainMode::kDefaultRoute;
  config.default_domain = DomainId{0};
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.service->add_member(g, topo.domain(DomainId{2}).routers[1]);
  f.service->advertise_via_peering(g, DomainId{2}, DomainId{1});
  f.converge();
  const NodeId a_border = topo.domain(DomainId{0}).routers[1];
  EXPECT_EQ(
      f.bgp->best_route(a_border, net::Prefix::host(f.service->group(g).address)),
      nullptr);
}

TEST(Group, MemberDomainsDeduplicated) {
  Fixture f(domain_line3());
  GroupConfig config;
  config.mode = InterDomainMode::kGlobalRoutes;
  const auto g = f.service->create_group(config);
  const auto& topo = f.network.topology();
  f.service->add_member(g, topo.domain(DomainId{0}).routers[0]);
  f.service->add_member(g, topo.domain(DomainId{0}).routers[1]);
  f.service->add_member(g, topo.domain(DomainId{2}).routers[0]);
  const auto domains = f.service->group(g).member_domains(topo);
  EXPECT_EQ(domains.size(), 2u);
  EXPECT_TRUE(f.service->group(g).has_member_in(topo, DomainId{0}));
  EXPECT_FALSE(f.service->group(g).has_member_in(topo, DomainId{1}));
}

}  // namespace
}  // namespace evo::anycast
