#include "anycast/resolver.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::anycast {
namespace {

using net::DomainId;
using net::NodeId;

/// Single-domain fixture: a link-state IGP, and a BGP with no border
/// routers, so no group is ever originated.
struct Fixture {
  explicit Fixture(net::Topology topo) : network(std::move(topo)) {
    igps.push_back(
        std::make_unique<igp::LinkStateIgp>(simulator, network, DomainId{0}));
    bgp = std::make_unique<bgp::BgpSystem>(simulator, network, igps);
    service = std::make_unique<AnycastService>(network, *bgp, igps);
  }

  net::GroupId make_group() {
    GroupConfig config;
    config.mode = InterDomainMode::kDefaultRoute;
    config.default_domain = DomainId{0};
    return service->create_group(config);
  }

  void converge() {
    if (!started_) {
      igps.front()->start();
      started_ = true;
    }
    simulator.run();
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::Igp>> igps;
  std::unique_ptr<bgp::BgpSystem> bgp;
  std::unique_ptr<AnycastService> service;
  bool started_ = false;
};

TEST(Resolver, ProbeOptimalDelivery) {
  Fixture f(net::single_domain_line(6));
  const auto g = f.make_group();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.service->add_member(g, routers[0]);
  f.converge();
  const auto result = probe(f.network, f.service->group(g), routers[4]);
  EXPECT_TRUE(result.delivered());
  EXPECT_EQ(result.member, routers[0]);
  EXPECT_EQ(result.optimal_member, routers[0]);
  EXPECT_EQ(result.optimal_cost, 4u);
  EXPECT_DOUBLE_EQ(result.stretch, 1.0);
}

TEST(Resolver, ProbeFromMemberItself) {
  Fixture f(net::single_domain_line(4));
  const auto g = f.make_group();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.service->add_member(g, routers[2]);
  f.converge();
  const auto result = probe(f.network, f.service->group(g), routers[2]);
  EXPECT_TRUE(result.delivered());
  EXPECT_EQ(result.optimal_cost, 0u);
  EXPECT_DOUBLE_EQ(result.stretch, 1.0);
}

TEST(Resolver, UndeliveredWhenNoMembers) {
  Fixture f(net::single_domain_line(3));
  const auto g = f.make_group();
  f.converge();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  const auto result = probe(f.network, f.service->group(g), routers[0]);
  EXPECT_FALSE(result.delivered());
  EXPECT_EQ(result.optimal_cost, net::kInfiniteCost);
}

TEST(Resolver, OracleReusableAcrossProbes) {
  Fixture f(net::single_domain_ring(8));
  const auto g = f.make_group();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.service->add_member(g, routers[0]);
  f.service->add_member(g, routers[4]);
  f.converge();
  const ClosestMemberOracle oracle(f.network.topology(), f.service->group(g));
  for (const NodeId src : routers) {
    const auto result = probe(f.network, f.service->group(g), src, oracle);
    EXPECT_TRUE(result.delivered());
    EXPECT_LE(result.trace.cost, 2u);  // ring of 8 with opposite members
    EXPECT_DOUBLE_EQ(result.stretch, 1.0);
  }
}

TEST(Resolver, CatchmentFullCoverage) {
  Fixture f(net::single_domain_grid(4, 4));
  const auto g = f.make_group();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.service->add_member(g, routers[0]);
  f.service->add_member(g, routers[15]);
  f.converge();
  const auto catchment = compute_catchment(f.network, f.service->group(g));
  EXPECT_DOUBLE_EQ(catchment.delivered_fraction, 1.0);
  EXPECT_DOUBLE_EQ(catchment.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(catchment.optimal_fraction, 1.0);
  // Every router is mapped to some member.
  for (const NodeId src : routers) {
    EXPECT_TRUE(catchment.member[src.value()].valid());
  }
}

TEST(Resolver, CatchmentSplitsBetweenMembers) {
  Fixture f(net::single_domain_line(10));
  const auto g = f.make_group();
  const auto& routers = f.network.topology().domain(DomainId{0}).routers;
  f.service->add_member(g, routers[0]);
  f.service->add_member(g, routers[9]);
  f.converge();
  const auto catchment = compute_catchment(f.network, f.service->group(g));
  std::size_t to_left = 0;
  std::size_t to_right = 0;
  for (const NodeId src : routers) {
    if (catchment.member[src.value()] == routers[0]) ++to_left;
    if (catchment.member[src.value()] == routers[9]) ++to_right;
  }
  EXPECT_EQ(to_left, 5u);
  EXPECT_EQ(to_right, 5u);
}

TEST(Resolver, EmptyGroupCatchment) {
  Fixture f(net::single_domain_line(3));
  const auto g = f.make_group();
  f.converge();
  const auto catchment = compute_catchment(f.network, f.service->group(g));
  EXPECT_DOUBLE_EQ(catchment.delivered_fraction, 0.0);
}

}  // namespace
}  // namespace evo::anycast
