// Footnotes 2-3: vN-Bone construction when the IGP cannot enumerate
// members (plain distance-vector) — anycast-bootstrap trees instead of
// k-closest neighbor selection.
#include <gtest/gtest.h>

#include "core/evolvable_internet.h"
#include "core/universal_access.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::NodeId;

std::size_t count_source(const VnBone& bone, VirtualLink::Source source,
                         bool interdomain) {
  std::size_t n = 0;
  for (const auto& l : bone.virtual_links()) {
    if (l.source == source && l.interdomain == interdomain) ++n;
  }
  return n;
}

TEST(DiscoveryLimits, PlainDvBuildsBootstrapTree) {
  core::Options options;
  options.igp = core::IgpKind::kDistanceVector;  // no member discovery
  core::EvolvableInternet net(net::single_domain_ring(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : {routers[0], routers[2], routers[4]}) {
    net.deploy_router(r);
  }
  net.converge();
  // Members 0, 2 and 4 share no physical link, so no congruent link joins
  // them. Tree: exactly members-1 intra links, all from the anycast
  // bootstrap.
  EXPECT_EQ(net.vnbone().virtual_links().size(), 2u);
  EXPECT_EQ(count_source(net.vnbone(), VirtualLink::Source::kAnycastBootstrap,
                         /*interdomain=*/false),
            2u);
  EXPECT_EQ(count_source(net.vnbone(), VirtualLink::Source::kIntraK, false), 0u);
  // Connected regardless.
  const auto comps = net::connected_components(net.vnbone().virtual_graph());
  EXPECT_EQ(comps.label[routers[0].value()], comps.label[routers[4].value()]);
}

TEST(DiscoveryLimits, TaggedDvUsesKClosest) {
  core::Options options;
  options.igp = core::IgpKind::kDistanceVectorTagged;  // discovery restored
  core::EvolvableInternet net(net::single_domain_ring(6), options);
  net.start();
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  for (const NodeId r : {routers[0], routers[2], routers[4]}) {
    net.deploy_router(r);
  }
  net.converge();
  EXPECT_GT(count_source(net.vnbone(), VirtualLink::Source::kIntraK, false), 0u);
  EXPECT_EQ(count_source(net.vnbone(), VirtualLink::Source::kAnycastBootstrap,
                         false),
            0u);
}

TEST(DiscoveryLimits, UniversalAccessUnaffected) {
  // The degraded tree still carries full end-to-end service.
  auto topo = net::generate_transit_stub({.transit_domains = 2,
                                          .stubs_per_transit = 2,
                                          .seed = 333});
  sim::Rng rng{333};
  net::attach_hosts(topo, 2, rng);
  core::Options options;
  options.igp = core::IgpKind::kDistanceVector;
  core::EvolvableInternet net(std::move(topo), options);
  net.start();
  net.deploy_domain(DomainId{0});
  net.converge();
  const auto report = core::verify_universal_access(net);
  EXPECT_TRUE(report.universal()) << report.failures.size() << " failures";
}

}  // namespace
}  // namespace evo::vnbone
