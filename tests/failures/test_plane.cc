// The fault-injection plane: schedule building, metric emission, automatic
// control-plane notification fan-out (no manual converge()/rebuild()
// choreography), and run-to-run determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anycast/resolver.h"
#include "core/evolvable_internet.h"
#include "core/failure_plane.h"
#include "net/topology_gen.h"
#include "sim/metrics.h"

namespace evo {
namespace {

using core::EvolvableInternet;
using core::FailureKind;
using core::FailurePlane;
using core::FailureSchedule;
using net::DomainId;
using net::LinkId;
using net::NodeId;

TEST(FailureSchedule, EventsSortStablyByNominalTime) {
  FailureSchedule s;
  const auto t = [](std::int64_t ms) {
    return sim::TimePoint{} + sim::Duration::millis(ms);
  };
  // Added out of order, with a tie at 5ms.
  s.node_down(t(9), NodeId{7});
  s.link_down(t(5), LinkId{1});
  s.link_up(t(5), LinkId{2});
  s.member_loss(t(1), NodeId{3});
  const auto& events = s.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, FailureKind::kMemberLoss);
  EXPECT_EQ(events[1].kind, FailureKind::kLinkDown);  // tie: insertion order
  EXPECT_EQ(events[2].kind, FailureKind::kLinkUp);
  EXPECT_EQ(events[3].kind, FailureKind::kNodeDown);
}

TEST(FailureSchedule, FlapAndCrashExpandToPairedEvents) {
  FailureSchedule s;
  const sim::TimePoint t0;
  s.link_flap(t0 + sim::Duration::millis(10), sim::Duration::millis(40),
              LinkId{2});
  s.node_crash(t0 + sim::Duration::millis(100), sim::Duration::millis(50),
               NodeId{4});
  ASSERT_EQ(s.size(), 4u);
  const auto& events = s.events();
  EXPECT_EQ(events[0].kind, FailureKind::kLinkDown);
  EXPECT_EQ(events[1].kind, FailureKind::kLinkUp);
  EXPECT_EQ(events[1].at - events[0].at, sim::Duration::millis(40));
  EXPECT_EQ(events[2].kind, FailureKind::kNodeDown);
  EXPECT_EQ(events[3].kind, FailureKind::kNodeUp);
}

std::unique_ptr<EvolvableInternet> ring_internet() {
  auto topo = net::generate_transit_stub({.transit_domains = 3,
                                          .stubs_per_transit = 1,
                                          .extra_transit_peering_probability = 1.0,
                                          .seed = 41});
  auto net = std::make_unique<EvolvableInternet>(std::move(topo));
  net->start();
  return net;
}

TEST(FailurePlaneTest, FlapEmitsMetricsAndRecoversDelivery) {
  auto net = ring_internet();
  net->deploy_domain(DomainId{0});
  net->converge();
  const auto group_id = net->vnbone().anycast_group();
  const auto addr = net->anycast().group(group_id).address;

  sim::MetricRegistry metrics;
  FailurePlane plane(*net, metrics);
  for (const auto& d : net->topology().domains()) {
    if (d.stub) plane.add_probe(d.routers.front(), addr);
  }

  // Flap the first member's first physical link, twice.
  const NodeId member = net->topology().domain(DomainId{0}).routers.front();
  const LinkId victim = net->topology().router(member).links.front();
  const sim::TimePoint t0 = net->simulator().now();
  FailureSchedule schedule;
  schedule
      .link_flap(t0 + sim::Duration::millis(100), sim::Duration::millis(300),
                 victim)
      .link_flap(t0 + sim::Duration::millis(1500), sim::Duration::millis(300),
                 victim);
  plane.arm(schedule);
  net->converge();

  EXPECT_EQ(plane.events_applied(), 4u);
  EXPECT_EQ(metrics.counter("net.failure.events"), 4);
  EXPECT_EQ(metrics.counter("net.failure.events.link-down"), 2);
  EXPECT_EQ(metrics.counter("net.failure.events.link-up"), 2);
  const auto* reconverge = metrics.find_summary("net.failure.reconverge_ms");
  ASSERT_NE(reconverge, nullptr);
  EXPECT_EQ(reconverge->count(), 4u);
  // After every reconvergence the ring has healed: all probes deliver.
  const auto* after = metrics.find_summary("net.failure.after.delivery_rate");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count(), 4u);
  EXPECT_DOUBLE_EQ(after->mean(), 100.0);
}

// Satellite of the notification tentpole: a tunnel over a failed link is
// repaired by the automatic fan-out alone. No converge(), no rebuild() —
// just letting the simulator drain must leave the vN-Bone consistent.
TEST(FailurePlaneTest, TunnelRepairsWithoutExplicitRebuild) {
  EvolvableInternet net(net::single_domain_ring(6));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  net.converge();
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);
  ASSERT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 2u);  // 0-1-2

  net.set_link_up(LinkId{1}, false);
  net.simulator().run();  // drain only; sync is event-driven
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);
  EXPECT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 4u);  // 0-5-4-3-2

  net.set_link_up(LinkId{1}, true);
  net.simulator().run();
  EXPECT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 2u);
}

TEST(FailurePlaneTest, CrashNotifiesIgpBgpAndBoneWithoutConverge) {
  // Router crash fan-out, end to end: IGP routes around the dead member,
  // BGP drops its sessions, the bone drops the member — all from one
  // set_node_up call followed by an undirected simulator drain.
  auto net = ring_internet();
  net->deploy_domain(DomainId{0});
  net->converge();
  const auto group_id = net->vnbone().anycast_group();
  const NodeId probe_src = net->topology().domains().back().routers.front();
  const auto before = anycast::probe(net->network(),
                                     net->anycast().group(group_id), probe_src);
  ASSERT_TRUE(before.delivered());
  const NodeId victim = before.trace.delivered_at;

  net->set_node_up(victim, false);
  net->simulator().run();
  const auto during = anycast::probe(net->network(),
                                     net->anycast().group(group_id), probe_src);
  ASSERT_TRUE(during.delivered());
  EXPECT_NE(during.trace.delivered_at, victim);

  net->set_node_up(victim, true);
  net->simulator().run();
  const auto after = anycast::probe(net->network(),
                                    net->anycast().group(group_id), probe_src);
  EXPECT_TRUE(after.delivered());
}

// A border crash flips iBGP sessions, so the internet's idle sync re-arms
// and UPDATEs go out again. "after" must wait for the sync that finishes,
// not read the FIBs at the quiescence that merely re-armed it.
TEST(FailurePlaneTest, AfterWaitsForTheSyncToFinish) {
  auto net = std::make_unique<EvolvableInternet>(net::generate_transit_stub(
      {.transit_domains = 3, .stubs_per_transit = 2, .seed = 5}));
  net->start();
  net->deploy_domain(DomainId{0});
  net->converge();

  sim::MetricRegistry metrics;
  FailurePlane plane(*net, metrics);
  const auto& topo = net->topology();
  std::vector<std::pair<NodeId, net::Ipv4Addr>> probes;
  for (const auto& router : topo.routers()) {
    for (const auto& domain : topo.domains()) {
      if (domain.id == router.domain) continue;
      probes.emplace_back(router.id, topo.router(domain.routers.front()).loopback);
      plane.add_probe(probes.back().first, probes.back().second);
    }
  }
  const NodeId victim{6};
  ASSERT_TRUE(topo.router(victim).border);
  FailureSchedule schedule;
  schedule.node_down(net->simulator().now(), victim);
  plane.arm(schedule);
  net->converge();
  ASSERT_EQ(plane.events_applied(), 1u);

  std::size_t delivered = 0;
  for (const auto& [from, dst] : probes) {
    if (net->network().trace(from, dst).delivered()) ++delivered;
  }
  const auto* after = metrics.find_summary("net.failure.after.delivery_rate");
  ASSERT_NE(after, nullptr);
  ASSERT_EQ(after->count(), 1u);
  EXPECT_DOUBLE_EQ(after->mean(), 100.0 * static_cast<double>(delivered) /
                                      static_cast<double>(probes.size()));
}

TEST(FailurePlaneTest, IdenticalSchedulesProduceIdenticalMetrics) {
  // The whole plane is deterministic: same topology seed, same schedule,
  // same metric report — byte for byte.
  std::string reports[2];
  for (auto& report : reports) {
    auto net = ring_internet();
    net->deploy_domain(DomainId{0});
    net->converge();
    sim::MetricRegistry metrics;
    FailurePlane plane(*net, metrics);
    const auto addr = net->anycast().group(net->vnbone().anycast_group()).address;
    for (const auto& d : net->topology().domains()) {
      if (d.stub) plane.add_probe(d.routers.front(), addr);
    }
    const NodeId member = net->topology().domain(DomainId{0}).routers.front();
    const sim::TimePoint t0 = net->simulator().now();
    FailureSchedule schedule;
    schedule.node_crash(t0 + sim::Duration::millis(100),
                        sim::Duration::millis(500), member);
    schedule.link_flap(t0 + sim::Duration::millis(2000),
                       sim::Duration::millis(200),
                       net->topology().router(member).links.front());
    plane.arm(schedule);
    net->converge();
    EXPECT_EQ(plane.events_applied(), 4u);
    report = metrics.report();
  }
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace evo
