// Differential test: link-state and distance-vector must converge to the
// SAME distances (both equal the Dijkstra oracle) on randomized domains,
// before and after random link failures.
#include <gtest/gtest.h>

#include <memory>

#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::igp {
namespace {

using net::DomainId;
using net::LinkId;
using net::NodeId;

net::Topology random_domain(std::uint64_t seed, std::uint32_t routers) {
  net::Topology topo;
  const auto d = topo.add_domain("rand", /*stub=*/true);
  sim::Rng rng{seed};
  net::IntraDomainParams params;
  params.routers = routers;
  params.chord_probability = 0.3;
  params.max_cost = 9;
  net::populate_domain(topo, d, params, rng);
  return topo;
}

class IgpDifferentialTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(IgpDifferentialTest, DistancesAgreeOnRandomDomains) {
  const std::uint64_t seed = GetParam();
  // Two networks over the same topology, one protocol each.
  sim::Simulator sim_ls;
  net::Network net_ls(random_domain(seed, 12));
  LinkStateIgp ls(sim_ls, net_ls, DomainId{0});
  ls.start();
  sim_ls.run();

  sim::Simulator sim_dv;
  net::Network net_dv(random_domain(seed, 12));
  DistanceVectorIgp dv(sim_dv, net_dv, DomainId{0});
  dv.start();
  sim_dv.run();

  const auto& routers = net_ls.topology().domain(DomainId{0}).routers;
  const auto oracle0 = net::dijkstra(net_ls.topology().physical_graph(), routers[0]);
  for (const NodeId a : routers) {
    for (const NodeId b : routers) {
      EXPECT_EQ(ls.distance(a, b), dv.distance(a, b))
          << "seed " << seed << ": " << a.value() << "->" << b.value();
    }
    EXPECT_EQ(ls.distance(routers[0], a), oracle0.distance_to(a));
  }
}

TEST_P(IgpDifferentialTest, AgreementSurvivesRandomFailures) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim_ls;
  net::Network net_ls(random_domain(seed, 10));
  LinkStateIgp ls(sim_ls, net_ls, DomainId{0});
  ls.start();
  sim_ls.run();

  sim::Simulator sim_dv;
  net::Network net_dv(random_domain(seed, 10));
  DistanceVectorIgp dv(sim_dv, net_dv, DomainId{0});
  dv.start();
  sim_dv.run();

  // Fail the same ~20% of links in both.
  sim::Rng rng{seed ^ 0xDEAD};
  for (std::uint32_t i = 0; i < net_ls.topology().link_count(); ++i) {
    if (rng.bernoulli(0.2)) {
      net_ls.topology().set_link_up(LinkId{i}, false);
      ls.on_link_change(LinkId{i});
      net_dv.topology().set_link_up(LinkId{i}, false);
      dv.on_link_change(LinkId{i});
    }
  }
  sim_ls.run();
  sim_dv.run();

  const auto& routers = net_ls.topology().domain(DomainId{0}).routers;
  const auto oracle0 = net::dijkstra(net_ls.topology().physical_graph(), routers[0]);
  for (const NodeId a : routers) {
    for (const NodeId b : routers) {
      EXPECT_EQ(ls.distance(a, b), dv.distance(a, b))
          << "seed " << seed << ": " << a.value() << "->" << b.value();
    }
    EXPECT_EQ(ls.distance(routers[0], a), oracle0.distance_to(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IgpDifferentialTest,
                         testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

/// r0 - r1 - r2 over cost-1 links, and a cost-5 link parallel to r0 - r1
/// that no shortest path uses. The epoch holds while that link flaps or an
/// anycast member joins, and moves when a distance does.
template <typename Protocol>
void expect_epoch_moves_with_distances() {
  net::Topology topo;
  const auto d = topo.add_domain("line");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  const auto r2 = topo.add_router(d);
  const auto cheap = topo.add_link(r0, r1, 1);
  const auto costly = topo.add_link(r0, r1, 5);
  topo.add_link(r1, r2, 1);
  sim::Simulator simulator;
  net::Network network(std::move(topo));
  Protocol igp(simulator, network, d);
  igp.start();
  simulator.run();
  const auto flap = [&](LinkId link, bool up) {
    network.topology().set_link_up(link, up);
    igp.on_link_change(link);
    simulator.run();
  };
  const std::uint64_t settled = igp.epoch();

  flap(costly, false);
  EXPECT_EQ(igp.epoch(), settled);
  flap(costly, true);
  EXPECT_EQ(igp.epoch(), settled);
  igp.add_anycast_member(r2, net::Ipv4Addr{0, 0, 255, 1});
  simulator.run();
  EXPECT_EQ(igp.epoch(), settled);
  EXPECT_EQ(igp.distance(r0, r2), 2u);

  flap(cheap, false);
  EXPECT_EQ(igp.distance(r0, r1), 5u);
  const std::uint64_t failed = igp.epoch();
  EXPECT_NE(failed, settled);
  flap(cheap, true);
  EXPECT_EQ(igp.distance(r0, r1), 1u);
  EXPECT_NE(igp.epoch(), failed);
}

TEST(IgpEpoch, LinkStateMovesOnlyWithADistance) {
  expect_epoch_moves_with_distances<LinkStateIgp>();
}

TEST(IgpEpoch, DistanceVectorMovesOnlyWithADistance) {
  expect_epoch_moves_with_distances<DistanceVectorIgp>();
}

}  // namespace
}  // namespace evo::igp
