#include "core/evolvable_internet.h"

#include <gtest/gtest.h>

#include <string_view>

#include "core/scenario.h"
#include "core/trace.h"
#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::NodeId;

TEST(EvolvableInternet, StartConvergesBaseInternet) {
  auto topo = net::generate_transit_stub({.transit_domains = 2,
                                          .stubs_per_transit = 2,
                                          .seed = 3});
  EvolvableInternet net(std::move(topo));
  net.start();
  EXPECT_TRUE(net.simulator().idle());
  // Full unicast reachability across all domains.
  const auto& t = net.topology();
  for (const auto& src : t.routers()) {
    for (const auto& dst : t.routers()) {
      const auto result = net.network().trace(src.id, dst.loopback);
      ASSERT_TRUE(result.delivered())
          << src.id.value() << " -> " << dst.id.value();
    }
  }
}

TEST(EvolvableInternet, IgpKindSelectable) {
  for (const IgpKind kind : {IgpKind::kLinkState, IgpKind::kDistanceVector,
                             IgpKind::kDistanceVectorTagged}) {
    Options options;
    options.igp = kind;
    EvolvableInternet net(net::single_domain_ring(5), options);
    net.start();
    const auto& routers = net.topology().domain(DomainId{0}).routers;
    EXPECT_EQ(net.igp(DomainId{0})->distance(routers[0], routers[2]), 2u)
        << to_string(kind);
  }
}

TEST(EvolvableInternet, IgpKindNames) {
  EXPECT_STREQ(to_string(IgpKind::kLinkState), "link-state");
  EXPECT_STREQ(to_string(IgpKind::kDistanceVector), "distance-vector");
  EXPECT_STREQ(to_string(IgpKind::kDistanceVectorTagged),
               "distance-vector-tagged");
}

TEST(EvolvableInternet, LinkFailurePropagatesToProtocols) {
  auto fig = make_figure1();
  EvolvableInternet net(std::move(fig.topology));
  net.start();
  const auto& topo = net.topology();
  // Fail W's internal w0-w1 link; intra-domain rerouting is impossible on
  // a line, so X becomes unreachable from Z.
  const net::LinkId internal{0};
  ASSERT_FALSE(topo.link(internal).interdomain);
  net.set_link_up(internal, false);
  net.converge();
  const NodeId z_router = topo.domain(fig.z).routers[0];
  const NodeId x_router = topo.domain(fig.x).routers[0];
  const auto result = net.network().trace(z_router, topo.router(x_router).loopback);
  EXPECT_FALSE(result.delivered());
  // Restore.
  net.set_link_up(internal, true);
  net.converge();
  EXPECT_TRUE(
      net.network().trace(z_router, topo.router(x_router).loopback).delivered());
}

TEST(EvolvableInternet, InterdomainLinkFailureHandledByBgp) {
  auto fig = make_figure2();
  EvolvableInternet net(std::move(fig.topology));
  net.start();
  const auto& topo = net.topology();
  // Find the Q-Y peering link and cut it; Y must still reach Q's prefix
  // through D-P (longer policy path).
  net::LinkId qy = net::LinkId::invalid();
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    const auto da = topo.router(link.a).domain;
    const auto db = topo.router(link.b).domain;
    if ((da == fig.q && db == fig.y) || (da == fig.y && db == fig.q)) qy = link.id;
  }
  ASSERT_TRUE(qy.valid());
  const NodeId y_router = topo.domain(fig.y).routers[0];
  ASSERT_TRUE(net.network()
                  .trace(y_router, topo.domain(fig.q).prefix.address())
                  .delivered());
  net.set_link_up(qy, false);
  net.converge();
  const auto rerouted = net.network().trace(y_router, topo.domain(fig.q).prefix.address());
  ASSERT_TRUE(rerouted.delivered());
  // The path now crosses D and P.
  bool crossed_p = false;
  for (const NodeId hop : rerouted.hops) {
    if (topo.router(hop).domain == fig.p) crossed_p = true;
  }
  EXPECT_TRUE(crossed_p);
}

std::size_t rebuild_spans(const obs::Recorder& recorder) {
  std::size_t count = 0;
  for (const auto& event : recorder.log()) {
    if (event.phase == obs::Phase::kSpanOpen &&
        std::string_view(event.name) == "vnbone.rebuild") {
      ++count;
    }
  }
  return count;
}

// The armed idle sync is the only sync: converge() after a change that
// armed it rebuilds the vN-Bone once, not a second time afterwards.
TEST(EvolvableInternet, ConvergeAfterArmedChangeRebuildsOnce) {
  EvolvableInternet net(net::single_domain_ring(6));
  net.start();
  obs::Recorder recorder;
  recorder.set_capture_all(true);
  net.set_recorder(&recorder);
  const auto& routers = net.topology().domain(DomainId{0}).routers;

  net.deploy_router(routers[0]);
  net.deploy_router(routers[2]);
  EXPECT_FALSE(net.synced());
  net.converge();
  EXPECT_TRUE(net.synced());
  EXPECT_EQ(rebuild_spans(recorder), 1u);
  ASSERT_EQ(net.vnbone().virtual_links().size(), 1u);

  net.set_link_up(net::LinkId{1}, false);
  net.converge();
  EXPECT_EQ(rebuild_spans(recorder), 2u);
  EXPECT_EQ(net.vnbone().virtual_links()[0].underlay_cost, 4u);  // 0-5-4-3-2
}

// With nothing armed, converge() arms the sync itself: a manual tunnel
// configured without any protocol change still appears.
TEST(EvolvableInternet, ConvergeWithNothingArmedStillSyncs) {
  EvolvableInternet net(net::single_domain_line(6));
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  net.deploy_router(routers[0]);
  net.deploy_router(routers[5]);
  net.converge();
  ASSERT_TRUE(net.synced());
  const auto manual_links = [&] {
    std::size_t count = 0;
    for (const auto& l : net.vnbone().virtual_links()) {
      if (l.source == vnbone::VirtualLink::Source::kManual) ++count;
    }
    return count;
  };
  ASSERT_EQ(manual_links(), 0u);

  net.vnbone().add_manual_tunnel(routers[0], routers[5]);
  EXPECT_TRUE(net.synced());  // configuration alone arms nothing
  net.converge();
  EXPECT_EQ(manual_links(), 1u);
}

TEST(EndToEndTrace, CostAndDescribe) {
  net::Topology topo = net::single_domain_line(4);
  const auto h0 = topo.add_host(topo.domain(DomainId{0}).routers[0]);
  const auto h1 = topo.add_host(topo.domain(DomainId{0}).routers[3]);
  EvolvableInternet net(std::move(topo));
  net.start();
  net.deploy_domain(DomainId{0});
  net.converge();
  const auto trace = send_ipvn(net, h0, h1);
  ASSERT_TRUE(trace.delivered);
  EXPECT_EQ(trace.failure, EndToEndTrace::Failure::kNone);
  EXPECT_GT(trace.total_cost(), 0u);
  EXPECT_GT(trace.total_hops(), 0u);
  const auto text = trace.describe();
  EXPECT_NE(text.find("delivered"), std::string::npos);
}

TEST(EndToEndTrace, FailsCleanlyWithoutDeployment) {
  net::Topology topo = net::single_domain_line(3);
  const auto h0 = topo.add_host(topo.domain(DomainId{0}).routers[0]);
  const auto h1 = topo.add_host(topo.domain(DomainId{0}).routers[2]);
  EvolvableInternet net(std::move(topo));
  net.start();
  const auto trace = send_ipvn(net, h0, h1);
  EXPECT_FALSE(trace.delivered);
  EXPECT_EQ(trace.failure, EndToEndTrace::Failure::kNoDeployment);
  EXPECT_NE(std::string(trace.describe()).find("no-deployment"), std::string::npos);
}

TEST(EndToEndTrace, OracleHostDistance) {
  net::Topology topo = net::single_domain_line(4, /*cost=*/2);
  const auto h0 = topo.add_host(topo.domain(DomainId{0}).routers[0]);
  const auto h1 = topo.add_host(topo.domain(DomainId{0}).routers[3]);
  EvolvableInternet net(std::move(topo));
  net.start();
  EXPECT_EQ(oracle_host_distance(net, h0, h1), 6u);
  EXPECT_EQ(oracle_host_distance(net, h0, h0), 0u);
}

TEST(EndToEndTrace, SegmentKindsLabelled) {
  EXPECT_STREQ(to_string(Segment::Kind::kAnycastIngress), "anycast-ingress");
  EXPECT_STREQ(to_string(Segment::Kind::kTunnel), "tunnel");
  EXPECT_STREQ(to_string(Segment::Kind::kLegacyEgress), "legacy-egress");
  EXPECT_STREQ(to_string(EndToEndTrace::Failure::kIngressFailed), "ingress-failed");
}

}  // namespace
}  // namespace evo::core
