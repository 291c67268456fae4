// vN-Bone construction (§3.3.1): k-closest intra-domain neighbors,
// partition detection/repair, peering tunnels, anycast bootstrap, and the
// connected-to-default invariant.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/oracles.h"
#include "core/evolvable_internet.h"
#include "core/scenario.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::NodeId;
using Source = VirtualLink::Source;

std::string describe(const std::vector<VirtualLink>& links) {
  std::ostringstream out;
  for (const auto& l : links) {
    out << l.a.value() << "-" << l.b.value() << " cost " << l.underlay_cost
        << (l.interdomain ? " inter " : " intra ") << to_string(l.source) << "; ";
  }
  return out.str();
}

VirtualLink link(std::uint32_t a, std::uint32_t b, net::Cost cost, bool interdomain,
                 Source source) {
  return VirtualLink{NodeId{a}, NodeId{b}, cost, interdomain, source};
}

/// The bone's links are exactly `want`, and the from-scratch reference
/// builds the same.
void expect_links(const core::EvolvableInternet& net,
                  const std::vector<VirtualLink>& want) {
  const auto& have = net.vnbone().virtual_links();
  EXPECT_EQ(have, want) << "have: " << describe(have) << "\nwant: " << describe(want);
  const auto reference = check::reference_vnbone_build(net, net.vnbone());
  EXPECT_EQ(reference.links, want) << "reference: " << describe(reference.links);
}

/// Default domain D0 = {0, 1} joined by a zero-cost link, an undeployed
/// transit hub T = {2}, and stubs S1 = {3, 4} and S2 = {5}:
///
///   0 -0- 1 -2- 2 -5- 4 -1- 3
///               |
///               2 -2- 5
///
/// D0 deploys first (the default), then S1 and S2; no two deployed
/// domains peer, so both stubs are stranded until they bootstrap.
struct StubsAroundHub {
  StubsAroundHub() {
    const DomainId d0 = topo.add_domain("D0");
    const DomainId t = topo.add_domain("T");
    s1 = topo.add_domain("S1", /*stub=*/true);
    s2 = topo.add_domain("S2", /*stub=*/true);
    for (const DomainId d : {d0, d0, t, s1, s1, s2}) topo.add_router(d);
    topo.add_link(NodeId{0}, NodeId{1}, 0);
    topo.add_link(NodeId{3}, NodeId{4}, 1);
    topo.add_interdomain_link(NodeId{2}, NodeId{1}, net::Relationship::kCustomer, 2);
    s1_access =
        topo.add_interdomain_link(NodeId{2}, NodeId{4}, net::Relationship::kCustomer, 5);
    topo.add_interdomain_link(NodeId{2}, NodeId{5}, net::Relationship::kCustomer, 2);
  }
  void deploy(core::EvolvableInternet& net) const {
    net.deploy_domain(DomainId{0});
    net.deploy_domain(s1);
    net.deploy_domain(s2);
  }

  net::Topology topo;
  DomainId s1;
  DomainId s2;
  net::LinkId s1_access;
};

TEST(VnBoneConstruction, EmptyBeforeDeployment) {
  core::EvolvableInternet net(net::single_domain_line(4));
  net.start();
  EXPECT_TRUE(net.vnbone().virtual_links().empty());
  EXPECT_FALSE(net.vnbone().anycast_group().valid());
  EXPECT_TRUE(net.vnbone().deployed_domains().empty());
}

TEST(VnBoneConstruction, FirstDeployerBecomesDefault) {
  auto fig = core::make_figure1();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.y);
  net.converge();
  EXPECT_EQ(net.vnbone().default_domain(), fig.y);
  EXPECT_TRUE(net.vnbone().anycast_group().valid());
  // Option 2 default: the anycast address comes from Y's block.
  EXPECT_TRUE(net.topology().domain(fig.y).prefix.contains(
      net.vnbone().anycast_address()));
}

TEST(VnBoneConstruction, KClosestNeighborsWithinDomain) {
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(net::single_domain_line(5), options);
  net.start();
  for (const NodeId r : net.topology().domain(DomainId{0}).routers) {
    net.deploy_router(r);
  }
  net.converge();
  // With k=1 on a line, each router links to its nearest neighbor; repair
  // then stitches any leftover partitions. The result must be connected.
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : routers) {
    EXPECT_EQ(comps.label[r.value()], comps.label[routers[0].value()]);
  }
}

TEST(VnBoneConstruction, PartitionRepairCounted) {
  // A long line with k=1 and members only at the two ends: the two
  // singleton "components" must be repaired together.
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(net::single_domain_line(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[1]);
  net.deploy_router(routers[4]);
  net.deploy_router(routers[5]);
  net.converge();
  // k=1 links (0,1) and (4,5); repair must bridge the 1-4 gap.
  EXPECT_GE(net.vnbone().partition_repairs(), 1u);
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  EXPECT_EQ(comps.label[routers[0].value()], comps.label[routers[5].value()]);
}

TEST(VnBoneConstruction, PartitionRepairOrdersComponentsByLowestId) {
  // One domain, members 0 and 3-8, routers 1 and 2 undeployed:
  //
  //   8 -1- 7 -1- 0 -2- 1 -2- 3 -1- 4 -2- 2 -2- 5 -1- 6
  //
  // With k = 1 the bone is three components, {0, 7, 8}, {3, 4} and {5, 6};
  // link 7-8 is added before 0-7, so the first one's lowest id (0) is not
  // the first router it grew from. The cheapest candidates tie at cost 4,
  // (0, 3) and (4, 5): the pair from the lowest-id component is oriented
  // and taken first.
  net::Topology topo;
  const DomainId domain = topo.add_domain("split", /*stub=*/true);
  for (int i = 0; i < 9; ++i) topo.add_router(domain);
  topo.add_link(NodeId{7}, NodeId{8}, 1);
  topo.add_link(NodeId{0}, NodeId{7}, 1);
  topo.add_link(NodeId{0}, NodeId{1}, 2);
  topo.add_link(NodeId{1}, NodeId{3}, 2);
  topo.add_link(NodeId{3}, NodeId{4}, 1);
  topo.add_link(NodeId{4}, NodeId{2}, 2);
  topo.add_link(NodeId{2}, NodeId{5}, 2);
  topo.add_link(NodeId{5}, NodeId{6}, 1);
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(std::move(topo), options);
  net.start();
  for (const std::uint32_t m : {0u, 3u, 4u, 5u, 6u, 7u, 8u}) net.deploy_router(NodeId{m});
  net.converge();
  expect_links(net, {link(7, 8, 1, false, Source::kCongruent),
                     link(0, 7, 1, false, Source::kCongruent),
                     link(3, 4, 1, false, Source::kCongruent),
                     link(5, 6, 1, false, Source::kCongruent),
                     link(0, 3, 4, false, Source::kPartitionRepair),
                     link(4, 5, 4, false, Source::kPartitionRepair)});
  EXPECT_EQ(net.vnbone().partition_repairs(), 2u);
  EXPECT_EQ(net.vnbone().bootstrap_tunnels(), 0u);
}

TEST(VnBoneConstruction, StrandedStubsBootstrapInIdOrderToLowestNearest) {
  // S1's router 3 is stranded first. Its own member 4 is 1 away, so the
  // search passes it; routers 1 and 5 are both 8 away, and 0 is also 8
  // away but found only through 1's zero-cost link: 0, the lowest id at
  // the nearest distance, wins. Then S2's router 5 tunnels to 0 (4 away,
  // again found after 1).
  StubsAroundHub hub;
  core::EvolvableInternet net(std::move(hub.topo));
  net.start();
  hub.deploy(net);
  net.converge();
  expect_links(net, {link(0, 1, 0, false, Source::kCongruent),
                     link(3, 4, 1, false, Source::kCongruent),
                     link(3, 0, 8, true, Source::kAnycastBootstrap),
                     link(5, 0, 4, true, Source::kAnycastBootstrap)});
  EXPECT_EQ(net.vnbone().bootstrap_tunnels(), 2u);
  EXPECT_EQ(net.vnbone().partition_repairs(), 0u);
}

TEST(VnBoneConstruction, HopelessComponentSkippedWhileOthersBootstrap) {
  // S1's only access link is down: its component is physically cut off,
  // so it stays stranded, and S2 (higher ids) still bootstraps.
  StubsAroundHub hub;
  const net::LinkId s1_access = hub.s1_access;
  core::EvolvableInternet net(std::move(hub.topo));
  net.start();
  hub.deploy(net);
  net.set_link_up(s1_access, false);
  net.converge();
  expect_links(net, {link(0, 1, 0, false, Source::kCongruent),
                     link(3, 4, 1, false, Source::kCongruent),
                     link(5, 0, 4, true, Source::kAnycastBootstrap)});
  EXPECT_EQ(net.vnbone().bootstrap_tunnels(), 1u);
}

TEST(VnBoneConstruction, VirtualLinkCostsMatchIgpDistance) {
  core::EvolvableInternet net(net::single_domain_line(4, /*cost=*/3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);
  EXPECT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 6u);  // 2 hops * 3
}

TEST(VnBoneConstruction, PeeringTunnelBetweenAdjacentDeployedDomains) {
  auto fig = core::make_figure2();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.d);
  net.deploy_domain(fig.q);
  net.converge();
  // D and Q are not adjacent; they connect via bootstrap (no peering).
  std::size_t peering = 0;
  std::size_t bootstrap = 0;
  for (const auto& l : net.vnbone().virtual_links()) {
    if (l.source == VirtualLink::Source::kPeeringTunnel) ++peering;
    if (l.source == VirtualLink::Source::kAnycastBootstrap) ++bootstrap;
  }
  EXPECT_EQ(peering, 0u);
  EXPECT_GE(bootstrap, 1u);
  // Deploy P (adjacent to both): now policy tunnels appear.
  net.deploy_domain(fig.p);
  net.converge();
  peering = 0;
  for (const auto& l : net.vnbone().virtual_links()) {
    if (l.source == VirtualLink::Source::kPeeringTunnel) ++peering;
  }
  EXPECT_GE(peering, 2u);  // P-D and P-Q
}

TEST(VnBoneConstruction, ConnectedToDefaultInvariant) {
  // Whatever the deployment pattern, every deployed router must reach the
  // default provider's component (the §3.3.1 partition rule).
  auto topo = net::generate_transit_stub({.transit_domains = 3,
                                          .stubs_per_transit = 3,
                                          .seed = 17});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  // Deploy a scattered subset: one router in every third domain.
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 3) {
    net.deploy_router(domains[i].routers.front());
  }
  net.converge();
  const auto deployed = net.vnbone().deployed_routers();
  ASSERT_GE(deployed.size(), 2u);
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  for (const NodeId r : deployed) {
    EXPECT_EQ(comps.label[r.value()], comps.label[deployed.front().value()])
        << "router " << r.value() << " stranded from the vN-Bone";
  }
}

TEST(VnBoneConstruction, UndeployShrinksBone) {
  core::EvolvableInternet net(net::single_domain_line(4));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : routers) net.deploy_router(r);
  net.converge();
  const auto links_before = net.vnbone().virtual_links().size();
  net.undeploy_router(routers[3]);
  net.converge();
  EXPECT_LT(net.vnbone().virtual_links().size(), links_before);
  EXPECT_FALSE(net.vnbone().deployed(routers[3]));
}

TEST(VnBoneConstruction, DeployIsIdempotent) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto r = net.topology().domain(DomainId{0}).routers[0];
  net.deploy_router(r);
  net.deploy_router(r);
  net.converge();
  EXPECT_EQ(net.vnbone().deployed_routers().size(), 1u);
}

TEST(VnBoneConstruction, DeployedDomainsSorted) {
  auto fig = core::make_figure1();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.z);
  net.deploy_domain(fig.x);
  net.converge();
  const auto domains = net.vnbone().deployed_domains();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0], fig.x);
  EXPECT_EQ(domains[1], fig.z);
  EXPECT_TRUE(net.vnbone().domain_deployed(fig.x));
  EXPECT_FALSE(net.vnbone().domain_deployed(fig.y));
}

TEST(VnBoneConstruction, RebuildIsDeterministic) {
  auto topo = net::generate_transit_stub({.transit_domains = 2,
                                          .stubs_per_transit = 2,
                                          .seed = 5});
  core::EvolvableInternet net(std::move(topo));
  net.start();
  for (const auto& d : net.topology().domains()) {
    net.deploy_router(net.topology().domain(d.id).routers.front());
  }
  net.converge();
  const auto first = net.vnbone().virtual_links();
  net.vnbone().rebuild();
  const auto second = net.vnbone().virtual_links();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].a, second[i].a);
    EXPECT_EQ(first[i].b, second[i].b);
    EXPECT_EQ(first[i].underlay_cost, second[i].underlay_cost);
  }
}

}  // namespace
}  // namespace evo::vnbone
