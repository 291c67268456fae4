// BGPvN, the event-driven vN inter-domain protocol: convergence,
// reachability, proxy routes, and agreement with the converged-state
// oracle (VnBone::route) and the analytic RIB size.
#include "vnbone/bgpvn.h"

#include <gtest/gtest.h>

#include "core/evolvable_internet.h"
#include "core/scenario.h"
#include "net/topology_gen.h"

namespace evo::vnbone {
namespace {

using net::DomainId;
using net::NodeId;

struct Fixture {
  explicit Fixture(std::uint64_t seed = 201) {
    auto topo = net::generate_transit_stub({.transit_domains = 3,
                                            .stubs_per_transit = 2,
                                            .seed = seed});
    internet = std::make_unique<core::EvolvableInternet>(std::move(topo));
    internet->start();
  }

  void deploy_transits() {
    for (const auto& d : internet->topology().domains()) {
      if (!d.stub) internet->deploy_domain(d.id);
    }
    internet->converge();
  }

  std::unique_ptr<core::EvolvableInternet> internet;
};

TEST(BgpVn, NativeReachabilityAmongDeployedDomains) {
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto domains = f.internet->vnbone().deployed_domains();
  for (const DomainId a : domains) {
    for (const DomainId b : domains) {
      const auto* route = bgpvn.best_native(a, b);
      ASSERT_NE(route, nullptr) << a.value() << " -> " << b.value();
      EXPECT_EQ(route->target, b);
      EXPECT_TRUE(route->native);
      EXPECT_EQ(route->vn_path.back(), b);
      // Paths exclude the local domain (standard path-vector semantics):
      // a direct neighbor's route is just {b}.
      if (a != b) {
        EXPECT_FALSE(std::find(route->vn_path.begin(), route->vn_path.end(), a) !=
                     route->vn_path.end());
      }
    }
  }
  EXPECT_GT(bgpvn.messages_sent(), 0u);
}

TEST(BgpVn, PathsTraverseOnlyDeployedDomains) {
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto domains = f.internet->vnbone().deployed_domains();
  for (const DomainId a : domains) {
    for (const DomainId b : domains) {
      const auto* route = bgpvn.best_native(a, b);
      ASSERT_NE(route, nullptr);
      for (const DomainId hop : route->vn_path) {
        EXPECT_TRUE(f.internet->vnbone().domain_deployed(hop));
      }
      // No loops.
      auto path = route->vn_path;
      std::sort(path.begin(), path.end());
      EXPECT_EQ(std::adjacent_find(path.begin(), path.end()), path.end());
    }
  }
}

TEST(BgpVn, ProxyRoutesCoverReachableLegacyDomains) {
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto deployed = f.internet->vnbone().deployed_domains();
  for (const auto& legacy : f.internet->topology().domains()) {
    if (f.internet->vnbone().domain_deployed(legacy.id)) continue;
    for (const DomainId at : deployed) {
      const auto* route = bgpvn.best_proxy(at, legacy.id);
      ASSERT_NE(route, nullptr)
          << "no proxy route at " << at.value() << " for " << legacy.name;
      EXPECT_FALSE(route->native);
      EXPECT_GT(route->legacy_distance, 0u);
    }
  }
}

TEST(BgpVn, ProxySelectionMatchesOracle) {
  // The protocol's chosen proxy origin must advertise the same minimal
  // legacy distance the converged-state oracle computes.
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto deployed = f.internet->vnbone().deployed_domains();
  for (const auto& legacy : f.internet->topology().domains()) {
    if (f.internet->vnbone().domain_deployed(legacy.id)) continue;
    net::Cost oracle_best = net::kInfiniteCost;
    for (const DomainId d : deployed) {
      oracle_best =
          std::min(oracle_best, f.internet->vnbone().legacy_path_length(d, legacy.id));
    }
    for (const DomainId at : deployed) {
      const auto* route = bgpvn.best_proxy(at, legacy.id);
      ASSERT_NE(route, nullptr);
      EXPECT_EQ(route->legacy_distance, oracle_best) << legacy.name;
    }
  }
}

TEST(BgpVn, RibSizeMatchesAnalyticModel) {
  // The analytic model: one native entry per deployed domain plus one
  // proxy entry per reachable legacy domain. The real protocol's
  // best-route RIB at every deployed domain must be exactly that.
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto deployed = f.internet->vnbone().deployed_domains();
  std::size_t legacy_count = 0;
  for (const auto& d : f.internet->topology().domains()) {
    if (!f.internet->vnbone().domain_deployed(d.id)) ++legacy_count;
  }
  for (const DomainId at : deployed) {
    EXPECT_EQ(bgpvn.rib_size(at), deployed.size() + legacy_count);
  }
}

TEST(BgpVn, ConvergenceTimeIsFiniteAndMeasured) {
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  EXPECT_GT(bgpvn.convergence_time(), sim::Duration::zero());
  EXPECT_LT(bgpvn.convergence_time(), sim::Duration::seconds(10));
}

TEST(BgpVn, RestartAfterDeploymentChange) {
  Fixture f;
  f.deploy_transits();
  BgpVn bgpvn(f.internet->simulator(), f.internet->network(), f.internet->vnbone());
  bgpvn.restart();
  f.internet->simulator().run();
  const auto before = f.internet->vnbone().deployed_domains().size();
  // A stub joins.
  for (const auto& d : f.internet->topology().domains()) {
    if (d.stub) {
      f.internet->deploy_domain(d.id);
      break;
    }
  }
  f.internet->converge();
  bgpvn.restart();
  f.internet->simulator().run();
  const auto domains = f.internet->vnbone().deployed_domains();
  EXPECT_EQ(domains.size(), before + 1);
  for (const DomainId a : domains) {
    for (const DomainId b : domains) {
      EXPECT_NE(bgpvn.best_native(a, b), nullptr);
    }
  }
}


TEST(BgpVn, Figure4ProxyOriginIsC) {
  auto fig = core::make_figure4();
  core::EvolvableInternet net(std::move(fig.topology));
  net.start();
  net.deploy_domain(fig.a);
  net.deploy_domain(fig.b);
  net.deploy_domain(fig.c);
  net.converge();
  BgpVn bgpvn(net.simulator(), net.network(), net.vnbone());
  bgpvn.restart();
  net.simulator().run();
  // A's proxy route for Z must have C's short distance (1), learned over
  // the bone via B.
  const auto* route = bgpvn.best_proxy(fig.a, fig.z);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->legacy_distance, 1u);
  EXPECT_EQ(route->vn_path.back(), fig.c);
}

}  // namespace
}  // namespace evo::vnbone
