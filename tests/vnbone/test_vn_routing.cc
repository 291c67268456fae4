// Routing over the vN-Bone (§3.3.2): native destinations, self-addressed
// destinations under the three egress-selection modes, and BGPv(N-1)
// knowledge import.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/oracles.h"
#include "core/evolvable_internet.h"
#include "core/scenario.h"
#include "net/graph.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::IpvNAddr;
using net::NodeId;

constexpr EgressMode kAllModes[] = {
    EgressMode::kExitAtIngress, EgressMode::kOwnPathKnowledge,
    EgressMode::kProxyAdvertising, EgressMode::kEndhostAdvertised};

/// route() from `ingress` to `dst` equals the uncached reference under
/// every egress mode.
void expect_matches_reference(const core::EvolvableInternet& net, NodeId ingress,
                              IpvNAddr dst) {
  const check::VnBoneSnapshot snapshot(net, net.vnbone());
  const auto tree = net::dijkstra(snapshot.virtual_graph, ingress);
  for (const EgressMode mode : kAllModes) {
    const auto fast = net.vnbone().route(ingress, dst, mode);
    const auto slow = check::reference_vn_route(snapshot, tree, ingress, dst, mode);
    EXPECT_TRUE(fast == slow) << "ingress " << ingress.value() << " under "
                              << to_string(mode) << ": egress "
                              << fast.egress.value() << " vs "
                              << slow.egress.value();
  }
}

/// The first link between domains `x` and `y`; invalid when none.
net::LinkId link_between(const net::Topology& topo, DomainId x, DomainId y) {
  for (const auto& link : topo.links()) {
    const auto da = topo.router(link.a).domain;
    const auto db = topo.router(link.b).domain;
    if ((da == x && db == y) || (da == y && db == x)) return link.id;
  }
  return net::LinkId::invalid();
}

/// Figure 4 with A, B and C deployed: the proxy egress from A toward Z
/// is in C.
struct Figure4Deployed {
  Figure4Deployed() : fig(core::make_figure4()), net(std::move(fig.topology)) {
    net.start();
    net.deploy_domain(fig.a);
    net.deploy_domain(fig.b);
    net.deploy_domain(fig.c);
    net.converge();
    ingress = net.topology().host(fig.src).access_router;
    to_z = IpvNAddr::self(8, net.topology().host(fig.dst).address);
  }
  NodeId proxy_egress() const {
    return net.vnbone().route(ingress, to_z, EgressMode::kProxyAdvertising).egress;
  }

  core::Figure4 fig;
  core::EvolvableInternet net;
  NodeId ingress;
  IpvNAddr to_z;
};

TEST(VnRouting, NativeDestinationRoutedToAccessRouter) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  // Destination: native address homed at O's router Y.
  const auto dst = IpvNAddr::native(8, fig.o.value(), fig.y.value(), 0);
  const NodeId ingress = topo.domain(fig.m).routers[0];
  const auto route = net.vnbone().route(ingress, dst);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, fig.y);
  EXPECT_FALSE(route.exits_to_legacy);
  EXPECT_GE(route.vn_hop_count(), 1u);
}

TEST(VnRouting, NativeDestinationPartialDomainUsesNearestMember) {
  // Home domain deployed only partially: the egress is the deployed router
  // closest to the (legacy) access router, and the tail is legacy.
  core::Options options;
  core::EvolvableInternet net(net::single_domain_line(5), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  // Destination homed at router 4 (not deployed); nearest member is 2.
  const auto dst = IpvNAddr::native(8, 0, routers[4].value(), 0);
  const auto route = net.vnbone().route(routers[0], dst);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, routers[2]);
  EXPECT_TRUE(route.exits_to_legacy);
}

TEST(VnRouting, SelfAddressExitAtIngress) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.c).address);
  const NodeId ingress = topo.domain(fig.m).routers[0];
  const auto route = net.vnbone().route(ingress, dst, EgressMode::kExitAtIngress);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, ingress);
  EXPECT_EQ(route.vn_hop_count(), 0u);
  EXPECT_TRUE(route.exits_to_legacy);
}

TEST(VnRouting, Figure3OwnPathKnowledgeExitsCloserToDestination) {
  auto fig = core::make_figure3();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.m);
  net.deploy_domain(fig.o);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.c).address);
  const NodeId ingress = topo.host(fig.a).access_router;  // in M

  // With BGPv(N-1) import, the egress must be in O (the deployed domain
  // furthest along M's path to C's domain) — the figure's "last IPvN hop
  // is Y".
  const auto informed =
      net.vnbone().route(ingress, dst, EgressMode::kOwnPathKnowledge);
  ASSERT_TRUE(informed.ok);
  EXPECT_EQ(topo.router(informed.egress).domain, fig.o);
  EXPECT_GE(informed.vn_hop_count(), 1u);
}

TEST(VnRouting, ProxyAdvertisingFindsOffPathEgress) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.deploy_domain(fig.b);
  net.deploy_domain(fig.c);
  net.converge();
  const auto& topo = net.topology();
  const auto dst = IpvNAddr::self(8, topo.host(fig.dst).address);
  const NodeId ingress = topo.host(fig.src).access_router;  // in A

  // A's own BGPv(N-1) path to Z runs through legacy M and N only, so
  // own-path knowledge finds no deployed domain and exits at the ingress.
  const auto own = net.vnbone().route(ingress, dst, EgressMode::kOwnPathKnowledge);
  ASSERT_TRUE(own.ok);
  EXPECT_EQ(own.egress, ingress);

  // With advertising-by-proxy, C's short distance to Z is visible in
  // BGPvN: the route rides the bone to C.
  const auto proxy = net.vnbone().route(ingress, dst, EgressMode::kProxyAdvertising);
  ASSERT_TRUE(proxy.ok);
  EXPECT_EQ(topo.router(proxy.egress).domain, fig.c);
}

TEST(VnRouting, LegacyPathLengthMatchesBgp) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.converge();
  // A's AS-path to Z: [M, N, Z] => 3; C's would be 1 (direct customer).
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.a, fig.z), 3u);
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.c, fig.z), 1u);
  EXPECT_EQ(net.vnbone().legacy_path_length(fig.z, fig.z), 0u);
  const auto path = net.vnbone().legacy_path(fig.a, fig.z);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.back(), fig.z);
}

TEST(VnRouting, UnreachableWithoutIngressDeployment) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.converge();
  // Routing from a non-deployed router fails.
  const auto dst = IpvNAddr::self(8, net::Ipv4Addr{0, 1, 0, 2});
  const auto route = net.vnbone().route(routers[2], dst);
  EXPECT_FALSE(route.ok);
}

TEST(VnRouting, BogusNativeDestinationRejected) {
  core::EvolvableInternet net(net::single_domain_line(3));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.converge();
  const auto dst = IpvNAddr::native(8, /*domain=*/77, /*node=*/9999, 0);
  const auto route = net.vnbone().route(routers[0], dst);
  EXPECT_FALSE(route.ok);
}

TEST(VnRoutingCache, MemberCrashWithoutRebuild) {
  // A crash the control plane has not yet seen: the bone still holds the
  // dead member's links, but it can be neither ingress nor egress.
  Figure4Deployed f;
  const NodeId egress = f.proxy_egress();
  ASSERT_EQ(f.net.topology().router(egress).domain, f.fig.c);
  const auto home_at_egress = IpvNAddr::native(8, f.fig.c.value(), egress.value(), 0);
  expect_matches_reference(f.net, f.ingress, home_at_egress);

  f.net.network().topology().set_node_up(egress, false);
  EXPECT_NE(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  expect_matches_reference(f.net, f.ingress, home_at_egress);
  EXPECT_FALSE(f.net.vnbone().route(egress, f.to_z).ok);
  expect_matches_reference(f.net, egress, f.to_z);
}

TEST(VnRoutingCache, DeployAndUndeployWithoutRebuild) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.converge();
  const auto& topo = net.topology();
  const NodeId ingress = topo.host(fig.src).access_router;
  const auto to_z = IpvNAddr::self(8, topo.host(fig.dst).address);
  const NodeId c0 = topo.domain(fig.c).routers[0];
  const auto home_at_c0 = IpvNAddr::native(8, fig.c.value(), c0.value(), 0);
  expect_matches_reference(net, ingress, to_z);

  // Deployed but not yet linked into the bone: C's one-hop route to Z is
  // advertised, yet no tunnel reaches C.
  net.vnbone().deploy_router(c0);
  expect_matches_reference(net, ingress, to_z);
  expect_matches_reference(net, ingress, home_at_c0);
  expect_matches_reference(net, c0, to_z);
  EXPECT_FALSE(net.vnbone().route(ingress, home_at_c0).ok);

  net.vnbone().rebuild();
  EXPECT_EQ(net.vnbone().route(ingress, to_z, EgressMode::kProxyAdvertising).egress, c0);
  expect_matches_reference(net, ingress, to_z);

  // Undeployed, still linked until the next rebuild.
  net.vnbone().undeploy_router(c0);
  EXPECT_NE(net.vnbone().route(ingress, to_z, EgressMode::kProxyAdvertising).egress, c0);
  expect_matches_reference(net, ingress, to_z);
  expect_matches_reference(net, ingress, home_at_c0);
}

TEST(VnRoutingCache, BgpWithdrawalMidConvergenceMovesProxyEgress) {
  Figure4Deployed f;
  const NodeId before = f.proxy_egress();
  ASSERT_EQ(f.net.topology().router(before).domain, f.fig.c);
  // Cut C from Z; C's BGPv(N-1) route to Z is withdrawn border by border.
  const net::LinkId c_z = link_between(f.net.topology(), f.fig.c, f.fig.z);
  ASSERT_TRUE(c_z.valid());
  f.net.set_link_up(c_z, false);
  bool moved_mid_convergence = false;
  while (!f.net.simulator().idle()) {
    f.net.simulator().run_until(f.net.simulator().now() + sim::Duration::millis(1));
    expect_matches_reference(f.net, f.ingress, f.to_z);
    if (f.proxy_egress() != before && !f.net.simulator().idle()) {
      moved_mid_convergence = true;
    }
  }
  EXPECT_TRUE(moved_mid_convergence);
}

// The proxy-egress memo keeps route()'s kProxyAdvertising choice per
// (ingress, target domain). Each test below warms it, then applies the
// writes behind one of the inputs it is keyed on; route() must equal the
// reference after each write, before and after the rebuild.

TEST(VnRoutingCache, ProxyMemoDropsOnDeployAndUndeploy) {
  Figure4Deployed f;
  const NodeId egress = f.proxy_egress();
  ASSERT_EQ(f.proxy_egress(), egress);  // the second answer is a memo hit
  // Undeployed but still on the bone until the next rebuild: the walk
  // passes through it and picks another member.
  f.net.vnbone().undeploy_router(egress);
  EXPECT_NE(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().deploy_router(egress);
  EXPECT_EQ(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().rebuild();
  expect_matches_reference(f.net, f.ingress, f.to_z);
}

TEST(VnRoutingCache, ProxyMemoDropsOnNodeDownAndUp) {
  // The crash and the recovery move only the topology epoch: the control
  // plane sees neither until the rebuild.
  Figure4Deployed f;
  const NodeId egress = f.proxy_egress();
  ASSERT_EQ(f.proxy_egress(), egress);
  auto& topo = f.net.network().topology();
  topo.set_node_up(egress, false);
  EXPECT_NE(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  topo.set_node_up(egress, true);
  EXPECT_EQ(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().rebuild();
  expect_matches_reference(f.net, f.ingress, f.to_z);
}

TEST(VnRoutingCache, ProxyMemoDropsOnBgpWithdrawal) {
  // The C-Z link carries no virtual link, so the rebuild in converge()
  // keeps every tree and the cut reaches the memo only through the
  // Loc-RIB epoch: the memo is warmed after the topology epoch moved.
  Figure4Deployed f;
  const NodeId egress = f.proxy_egress();
  const net::LinkId c_z = link_between(f.net.topology(), f.fig.c, f.fig.z);
  ASSERT_TRUE(c_z.valid());
  f.net.set_link_up(c_z, false);
  ASSERT_EQ(f.proxy_egress(), egress);  // BGP has not withdrawn yet
  ASSERT_EQ(f.proxy_egress(), egress);
  f.net.converge();
  EXPECT_NE(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().rebuild();
  expect_matches_reference(f.net, f.ingress, f.to_z);

  f.net.set_link_up(c_z, true);
  EXPECT_NE(f.proxy_egress(), egress);  // warm at the new topology epoch
  f.net.converge();
  EXPECT_EQ(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
}

TEST(VnRoutingCache, ProxyMemoDropsWithItsTree) {
  // The B-C peering goes down; route() reads the memo again at the new
  // topology epoch, over the old tree. The rebuild then drops the B-C
  // tunnel, so C is reached only the long way round, and it moves no
  // epoch: only retiring the tree drops what the memo holds.
  Figure4Deployed f;
  const NodeId egress = f.proxy_egress();
  const net::LinkId b_c = link_between(f.net.topology(), f.fig.b, f.fig.c);
  ASSERT_TRUE(b_c.valid());
  f.net.set_link_up(b_c, false);
  EXPECT_EQ(f.proxy_egress(), egress);
  EXPECT_EQ(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  const auto links = f.net.vnbone().virtual_links();
  f.net.vnbone().rebuild();
  EXPECT_NE(f.net.vnbone().virtual_links(), links);
  EXPECT_NE(f.proxy_egress(), egress);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.converge();
  expect_matches_reference(f.net, f.ingress, f.to_z);
}

TEST(VnRoutingCache, LinkFlapAndRebuildChangeVnHops) {
  core::Options options;
  options.vnbone.k_neighbors = 1;
  core::EvolvableInternet net(net::single_domain_ring(4), options);
  net.start();
  net.deploy_domain(DomainId{0});
  net.converge();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const auto home_at_1 = IpvNAddr::native(8, 0, routers[1].value(), 0);
  EXPECT_EQ(net.vnbone().route(routers[0], home_at_1).vn_hop_count(), 1u);

  net::LinkId zero_one = net::LinkId::invalid();
  for (const net::LinkId l : net.topology().router(routers[0]).links) {
    if (net.topology().link(l).other_end(routers[0]) == routers[1]) zero_one = l;
  }
  ASSERT_TRUE(zero_one.valid());
  net.set_link_up(zero_one, false);
  net.converge();  // rebuilds the bone
  EXPECT_EQ(net.vnbone().route(routers[0], home_at_1).vn_hop_count(), 3u);
  expect_matches_reference(net, routers[0], home_at_1);

  net.set_link_up(zero_one, true);
  net.converge();
  EXPECT_EQ(net.vnbone().route(routers[0], home_at_1).vn_hop_count(), 1u);
  expect_matches_reference(net, routers[0], home_at_1);
}

TEST(VnRoutingCache, NoOpRebuildKeepsTreesAndCostChangeReplacesThem) {
  // Triangle 0-1-2 (cost 1 each) with a direct 0-2 of cost 5, every router
  // deployed: the bone is the physical triangle and 0 reaches 2 via 1.
  net::Topology topo;
  const DomainId domain = topo.add_domain("triangle", /*stub=*/true);
  for (int i = 0; i < 3; ++i) topo.add_router(domain);
  const net::LinkId zero_one = topo.add_link(NodeId{0}, NodeId{1}, 1);
  topo.add_link(NodeId{1}, NodeId{2}, 1);
  topo.add_link(NodeId{0}, NodeId{2}, 5);
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(domain);
  net.converge();
  const auto home_at_2 = IpvNAddr::native(8, domain.value(), 2, 0);
  const auto before = net.vnbone().route(NodeId{0}, home_at_2);
  EXPECT_EQ(before.vn_hops, (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_EQ(before.vn_cost, 2u);

  // Nothing moved: the same links, and route() answers from the same tree.
  const auto links = net.vnbone().virtual_links();
  net.vnbone().rebuild();
  EXPECT_EQ(net.vnbone().virtual_links(), links);
  EXPECT_EQ(net.vnbone().route(NodeId{0}, home_at_2), before);

  // An intra-domain flap takes 0-1 down: 0 reaches 1 only around via 2
  // (cost 6), so the tree from 0 now takes the direct 0-2 tunnel.
  net.set_link_up(zero_one, false);
  net.converge();
  EXPECT_NE(net.vnbone().virtual_links(), links);
  const auto after = net.vnbone().route(NodeId{0}, home_at_2);
  EXPECT_EQ(after.vn_hops, (std::vector<NodeId>{NodeId{0}, NodeId{2}}));
  EXPECT_EQ(after.vn_cost, 5u);
  expect_matches_reference(net, NodeId{0}, home_at_2);
}

TEST(VnRoutingCache, EndhostRouteRegistration) {
  Figure4Deployed f;
  auto endhost = [&] {
    return f.net.vnbone().route(f.ingress, f.to_z, EgressMode::kEndhostAdvertised);
  };
  EXPECT_FALSE(endhost().ok);
  const auto& c_routers = f.net.topology().domain(f.fig.c).routers;
  f.net.vnbone().register_endhost_route(f.to_z, c_routers[1]);
  EXPECT_EQ(endhost().egress, c_routers[1]);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().register_endhost_route(f.to_z, c_routers[0]);
  EXPECT_EQ(endhost().egress, c_routers[0]);
  expect_matches_reference(f.net, f.ingress, f.to_z);
  f.net.vnbone().unregister_endhost_route(f.to_z);
  EXPECT_FALSE(endhost().ok);
  expect_matches_reference(f.net, f.ingress, f.to_z);
}

TEST(VnRoutingCache, TieHeavyRoutesFollowNetDijkstra) {
  // Every physical link costs 1, so equal-cost virtual paths abound. From
  // every active member to every active member, route()'s hops must be
  // net::dijkstra's over virtual_graph().
  net::TransitStubParams params{
      .transit_domains = 3, .stubs_per_transit = 3, .seed = 5};
  params.transit_internal = {.routers = 8, .chord_probability = 0.4, .min_cost = 1,
                             .max_cost = 1};
  params.stub_internal = {.routers = 4, .chord_probability = 0.3, .min_cost = 1,
                          .max_cost = 1};
  core::EvolvableInternet net(net::generate_transit_stub(params));
  net.start();
  const auto& domains = net.topology().domains();
  for (std::size_t i = 0; i < domains.size(); i += 2) net.deploy_domain(domains[i].id);
  net.converge();
  const auto& bone = net.vnbone();
  const auto graph = bone.virtual_graph();
  const auto members = bone.active_members();
  std::size_t ties = 0;  // members with two equal-cost predecessors
  for (const NodeId ingress : members) {
    const auto tree = net::dijkstra(graph, ingress);
    for (const NodeId m : members) {
      const auto dst = IpvNAddr::native(8, net.topology().router(m).domain.value(),
                                        m.value(), 0);
      EXPECT_EQ(bone.route(ingress, dst).vn_hops, tree.path_to(m))
          << "ingress " << ingress.value() << " to " << m.value();
      std::size_t parents = 0;
      for (const auto& e : graph.neighbors(m)) {
        parents += tree.reachable(e.to) &&
                   tree.distance_to(e.to) + e.cost == tree.distance_to(m);
      }
      ties += parents >= 2;
    }
  }
  EXPECT_GT(ties, members.size());
}

/// A transit-stub Internet whose bone is read at mixed depths: every
/// other domain deployed, domain 1 only at its first router (its other
/// routers are inactive native homes), and the last domain deployed but
/// physically cut off, so its members are on the bone yet unreachable.
struct MixedDepthInternet {
  MixedDepthInternet()
      : net(net::generate_transit_stub(
            {.transit_domains = 3, .stubs_per_transit = 3, .seed = 11})) {
    net.start();
    const auto& topo = net.topology();
    const auto& domains = topo.domains();
    for (std::size_t i = 0; i < domains.size(); i += 2) {
      net.deploy_domain(domains[i].id);
    }
    net.deploy_router(domains[1].routers.front());
    cut_off = domains.back().id;
    net.deploy_domain(cut_off);
    for (const auto& link : topo.links()) {
      if (link.interdomain && (topo.router(link.a).domain == cut_off ||
                               topo.router(link.b).domain == cut_off)) {
        net.set_link_up(link.id, false);
      }
    }
    net.converge();
  }

  core::EvolvableInternet net;
  DomainId cut_off;
};

struct MixedQuery {
  NodeId ingress;
  IpvNAddr dst;
  EgressMode mode;
  VnBone::VnRoute expected;  // the reference over a full tree
};

/// Every query kind from `ingress`: a native destination at each domain's
/// last router, and a self-addressed one at each domain's first router
/// under every mode, two of them advertised by endhosts at far members.
std::vector<MixedQuery> mixed_queries(const MixedDepthInternet& m, NodeId ingress) {
  const auto& topo = m.net.topology();
  const check::VnBoneSnapshot snapshot(m.net, m.net.vnbone());
  const auto tree = net::dijkstra(snapshot.virtual_graph, ingress);
  std::vector<MixedQuery> out;
  for (const auto& domain : topo.domains()) {
    const NodeId home = domain.routers.back();
    const auto native = IpvNAddr::native(8, domain.id.value(), home.value(), 0);
    out.push_back({ingress, native, EgressMode::kProxyAdvertising, {}});
    const auto self = IpvNAddr::self(8, topo.router(domain.routers.front()).loopback);
    for (const EgressMode mode : kAllModes) out.push_back({ingress, self, mode, {}});
  }
  for (auto& q : out) {
    q.expected = check::reference_vn_route(snapshot, tree, ingress, q.dst, q.mode);
  }
  return out;
}

/// How far into the tree a query reads, as the reference answers it.
net::Cost depth(const MixedQuery& q) {
  return q.expected.ok ? q.expected.vn_cost : net::kInfiniteCost;
}

/// Runs `order(queries)` on a fresh Internet, so every tree starts cold,
/// and checks each answer against the reference.
template <typename Order>
void expect_mixed_depths_match(Order order) {
  MixedDepthInternet m;
  const auto& bone = m.net.vnbone();
  const auto& topo = m.net.topology();
  const auto members = bone.active_members();
  const NodeId first = members.front();
  // Endhost routes advertised by the member farthest from `first`.
  const auto from_first = net::dijkstra(bone.virtual_graph(), first);
  NodeId far = first;
  for (const NodeId r : members) {
    if (from_first.reachable(r) &&
        from_first.distance_to(r) > from_first.distance_to(far)) {
      far = r;
    }
  }
  const auto& domains = topo.domains();
  for (const std::size_t i : {std::size_t{1}, domains.size() / 2}) {
    m.net.vnbone().register_endhost_route(
        IpvNAddr::self(8, topo.router(domains[i].routers.front()).loopback), far);
  }
  const auto queries = order(mixed_queries(m, first), mixed_queries(m, far));

  std::size_t unreachable_home = 0;  // native queries that drain the tree
  for (const auto& q : queries) {
    const auto got = bone.route(q.ingress, q.dst, q.mode);
    EXPECT_TRUE(got == q.expected)
        << "ingress " << q.ingress.value() << " under " << to_string(q.mode)
        << ": egress " << got.egress.value() << " cost " << got.vn_cost
        << ", reference egress " << q.expected.egress.value() << " cost "
        << q.expected.vn_cost;
    unreachable_home += !q.dst.is_self_address() &&
                        q.dst.native_domain() == m.cut_off.value() && !got.ok;
  }
  EXPECT_GT(unreachable_home, 0u);
}

TEST(VnRoutingCache, ResumedTreesAnswerMixedDepthsInAnyOrder) {
  const auto by_depth = [](std::vector<MixedQuery> queries, bool deep_first) {
    std::stable_sort(queries.begin(), queries.end(), [&](const auto& a, const auto& b) {
      return deep_first ? depth(a) > depth(b) : depth(a) < depth(b);
    });
    return queries;
  };
  // Shallow first, then deep first, from one ingress.
  expect_mixed_depths_match([&](auto first, auto) { return by_depth(first, false); });
  expect_mixed_depths_match([&](auto first, auto) { return by_depth(first, true); });
  // Interleaved across two ingresses: one shallow first, the other deep first.
  expect_mixed_depths_match([&](auto first, auto far) {
    const auto a = by_depth(first, false);
    const auto b = by_depth(far, true);
    std::vector<MixedQuery> out;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) out.push_back(a[i]);
      if (i < b.size()) out.push_back(b[i]);
    }
    return out;
  });
}

TEST(VnRoutingCache, OwnPathSettlesEveryMemberTiedWithTheFirst) {
  // M reaches C through legacy P and deployed O. O's two routers are joined
  // by a zero-cost link, and only a manual tunnel to the higher id links O
  // into the bone: the lower id ties with it but settles after it.
  net::Topology topo;
  const DomainId m = topo.add_domain("M");
  const DomainId p = topo.add_domain("P");
  const DomainId o = topo.add_domain("O");
  const DomainId c = topo.add_domain("C", /*stub=*/true);
  const NodeId m0 = topo.add_router(m);
  const NodeId m1 = topo.add_router(m);
  const NodeId p0 = topo.add_router(p);
  const NodeId o_low = topo.add_router(o);
  const NodeId o_high = topo.add_router(o);
  const NodeId c0 = topo.add_router(c);
  topo.add_link(m0, m1, 1);
  topo.add_link(o_low, o_high, 0);
  topo.add_interdomain_link(p0, m1, net::Relationship::kCustomer, 1);
  topo.add_interdomain_link(p0, o_high, net::Relationship::kCustomer, 1);
  topo.add_interdomain_link(o_low, c0, net::Relationship::kCustomer, 1);
  core::EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(m);
  net.deploy_domain(o);
  net.vnbone().add_manual_tunnel(m1, o_high);
  net.converge();

  const auto to_c = IpvNAddr::self(8, net.topology().router(c0).loopback);
  const auto route = net.vnbone().route(m0, to_c, EgressMode::kOwnPathKnowledge);
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.egress, o_low);
  EXPECT_EQ(route.vn_hops, (std::vector<NodeId>{m0, m1, o_high, o_low}));
  expect_matches_reference(net, m0, to_c);
}

TEST(VnRouting, ModeNamesRender) {
  EXPECT_STREQ(to_string(EgressMode::kExitAtIngress), "exit-at-ingress");
  EXPECT_STREQ(to_string(EgressMode::kOwnPathKnowledge), "own-path-knowledge");
  EXPECT_STREQ(to_string(EgressMode::kProxyAdvertising), "proxy-advertising");
  EXPECT_STREQ(to_string(VirtualLink::Source::kIntraK), "intra-k");
  EXPECT_STREQ(to_string(VirtualLink::Source::kAnycastBootstrap),
               "anycast-bootstrap");
}

}  // namespace
}  // namespace evo::vnbone
