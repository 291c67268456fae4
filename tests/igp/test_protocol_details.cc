// Protocol-internals coverage: LSA sequencing and flood suppression,
// SPF debouncing, DV split-horizon/poisoned-reverse behavior, and
// concurrent-failure convergence.
#include <gtest/gtest.h>

#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/topology_gen.h"

namespace evo::igp {
namespace {

using net::DomainId;
using net::LinkId;
using net::NodeId;

TEST(LinkStateDetails, FloodingSuppressesStaleDuplicates) {
  // In a cycle, every LSA arrives at some router twice; the stale-sequence
  // check must stop re-flooding (message count far below the no-dedup
  // exponential blowup, and the run terminates at all).
  sim::Simulator simulator;
  net::Network network(net::single_domain_ring(6));
  LinkStateIgp igp(simulator, network, DomainId{0});
  igp.start();
  simulator.run();
  // 6 LSAs, each crossing each of the 12 directed ring edges at most once
  // plus the initial floods: comfortably bounded.
  EXPECT_LE(igp.messages_sent(), 6u * 12u + 12u);
  EXPECT_GT(igp.messages_sent(), 0u);
}

TEST(LinkStateDetails, SpfDebounceCoalesces) {
  // LSAs arriving within one kSpfDelay window share an SPF run: each
  // router runs SPF only a handful of times, not once per LSA.
  sim::Simulator simulator;
  net::Network network(net::single_domain_grid(4, 4));
  LinkStateIgp igp(simulator, network, DomainId{0});
  igp.start();
  simulator.run();
  // 16 routers; without debouncing this would be ~16 LSAs x 16 routers.
  EXPECT_LE(igp.spf_runs(), 16u * 4u);
}

TEST(LinkStateDetails, ReOriginationBumpsSequence) {
  // Membership changes re-originate; peers must accept each newer LSA
  // (observable through discovery flapping on->off->on).
  sim::Simulator simulator;
  net::Network network(net::single_domain_line(3));
  LinkStateIgp igp(simulator, network, DomainId{0});
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  igp.start();
  simulator.run();
  const net::Ipv4Addr anycast{0, 1, 255, 7};
  for (int round = 0; round < 3; ++round) {
    igp.add_anycast_member(routers[2], anycast);
    simulator.run();
    EXPECT_EQ(igp.discovered_members(routers[0], anycast).size(), 1u) << round;
    igp.remove_anycast_member(routers[2], anycast);
    simulator.run();
    EXPECT_TRUE(igp.discovered_members(routers[0], anycast).empty()) << round;
  }
}

TEST(DistanceVectorDetails, PoisonedReverseStopsTwoNodeLoop) {
  // Classic: line a-b-c, c dies. Without poisoned reverse, a and b bounce
  // the route up to infinity; with it, convergence is immediate.
  sim::Simulator simulator;
  net::Network network(net::single_domain_line(3));
  DistanceVectorConfig config;
  config.infinity = 64;
  DistanceVectorIgp igp(simulator, network, DomainId{0},
                        /*tagged_advertisements=*/false, config);
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  igp.start();
  simulator.run();
  const auto baseline = igp.messages_sent();
  network.topology().set_link_up(LinkId{1}, false);
  igp.on_link_change(LinkId{1});
  simulator.run();
  EXPECT_EQ(igp.distance(routers[0], routers[2]), net::kInfiniteCost);
  // Convergence cost is a handful of messages, nowhere near
  // count-to-infinity's ~infinity rounds.
  EXPECT_LT(igp.messages_sent() - baseline, 40u);
}

TEST(DistanceVectorDetails, ConcurrentFailuresConverge) {
  sim::Simulator simulator;
  net::Network network(net::single_domain_grid(4, 4));
  DistanceVectorIgp igp(simulator, network, DomainId{0});
  igp.start();
  simulator.run();
  // Fail three links at once.
  for (const auto id : {LinkId{0}, LinkId{5}, LinkId{11}}) {
    network.topology().set_link_up(id, false);
    igp.on_link_change(id);
  }
  const auto events = simulator.run();
  EXPECT_LT(events, 100000u);  // converges, no runaway
  // Whatever is physically reachable must be routable, at exact cost.
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  const auto oracle = net::dijkstra(network.topology().physical_graph(), routers[0]);
  for (const NodeId dst : routers) {
    if (oracle.reachable(dst)) {
      EXPECT_EQ(igp.distance(routers[0], dst), oracle.distance_to(dst));
    } else {
      EXPECT_EQ(igp.distance(routers[0], dst), net::kInfiniteCost);
    }
  }
}

TEST(DistanceVectorDetails, TagsFollowBestPathChanges) {
  // Tagged mode: when the best path to a member's loopback moves, the
  // tags travel with the new advertisement.
  sim::Simulator simulator;
  net::Network network(net::single_domain_ring(5));
  DistanceVectorIgp igp(simulator, network, DomainId{0},
                        /*tagged_advertisements=*/true);
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  const net::Ipv4Addr anycast{0, 1, 255, 9};
  igp.add_anycast_member(routers[2], anycast);
  igp.start();
  simulator.run();
  ASSERT_EQ(igp.discovered_members(routers[0], anycast).size(), 1u);
  // Cut the short side toward the member; discovery must survive the
  // path change to the long way round.
  network.topology().set_link_up(LinkId{1}, false);
  igp.on_link_change(LinkId{1});
  simulator.run();
  EXPECT_EQ(igp.discovered_members(routers[0], anycast).size(), 1u);
  EXPECT_EQ(igp.distance(routers[0], routers[2]), 3u);  // 0-4-3-2
}

TEST(DistanceVectorDetails, LinkRecoveryExchangesFullTables) {
  sim::Simulator simulator;
  net::Network network(net::single_domain_line(4));
  DistanceVectorIgp igp(simulator, network, DomainId{0});
  const auto& routers = network.topology().domain(DomainId{0}).routers;
  igp.start();
  simulator.run();
  network.topology().set_link_up(LinkId{0}, false);
  igp.on_link_change(LinkId{0});
  simulator.run();
  ASSERT_EQ(igp.distance(routers[0], routers[3]), net::kInfiniteCost);
  network.topology().set_link_up(LinkId{0}, true);
  igp.on_link_change(LinkId{0});
  simulator.run();
  EXPECT_EQ(igp.distance(routers[0], routers[3]), 3u);
}

}  // namespace
}  // namespace evo::igp
