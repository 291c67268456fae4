// Invariant oracles: a healthy converged internet is clean, and direct
// state corruption (the faults oracles exist to catch) is reported.
#include "check/oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "check/fuzzer.h"
#include "core/evolvable_internet.h"
#include "net/compiled_fib.h"
#include "net/topology_gen.h"
#include "sim/random.h"

namespace evo::check {
namespace {

net::TransitStubParams small_params() {
  net::TransitStubParams params;
  params.transit_domains = 2;
  params.stubs_per_transit = 2;
  params.transit_internal.routers = 2;
  params.stub_internal.routers = 3;
  params.extra_transit_peering_probability = 1.0;
  params.seed = 0xC0FFEE;
  return params;
}

std::unique_ptr<core::EvolvableInternet> healthy_internet(
    core::Options options = {}) {
  auto internet = std::make_unique<core::EvolvableInternet>(
      net::generate_transit_stub(small_params()), options);
  internet->start();
  internet->deploy_router(net::NodeId{0});
  internet->deploy_router(net::NodeId{5});
  internet->converge();
  return internet;
}

TEST(Oracles, HealthyInternetIsClean) {
  auto internet = healthy_internet();
  const auto violations = check_invariants(*internet);
  for (const auto& v : violations) ADD_FAILURE() << v.describe();
  EXPECT_TRUE(violations.empty());
}

TEST(Oracles, HealthyDistanceVectorInternetIsClean) {
  core::Options options;
  options.igp = core::IgpKind::kDistanceVectorTagged;
  auto internet = healthy_internet(options);
  const auto violations = check_invariants(*internet);
  for (const auto& v : violations) ADD_FAILURE() << v.describe();
  EXPECT_TRUE(violations.empty());
}

TEST(Oracles, DroppedIgpRoutesAreCaught) {
  auto internet = healthy_internet();
  // Delete router 0's intra-domain routes out from under the control
  // plane — the lost-installation-write fault class. (Dropping a single
  // loopback /32 can be harmless while the covering subnet /24 still
  // routes the same way; losing the whole IGP table never is.)
  auto& fib = internet->network().fib(net::NodeId{0});
  std::vector<net::Prefix> victims;
  fib.for_each([&](const net::FibEntry& entry) {
    if (entry.origin == net::RouteOrigin::kIgp) victims.push_back(entry.prefix);
  });
  ASSERT_FALSE(victims.empty());
  for (const net::Prefix victim : victims) fib.remove(victim);
  EXPECT_FALSE(check_invariants(*internet).empty());
}

TEST(Oracles, SilentLinkDownIsCaught) {
  auto internet = healthy_internet();
  // Kill every link of router 1 behind the control plane's back: no
  // notification, so every FIB still forwards through the dead links.
  const auto links = internet->topology().router(net::NodeId{1}).links;
  for (const net::LinkId link : links) {
    internet->network().topology().set_link_up(link, false);
  }
  const auto violations = check_invariants(*internet);
  ASSERT_FALSE(violations.empty());
  bool found_forwarding_violation = false;
  for (const auto& v : violations) {
    if (v.oracle == OracleKind::kNoBlackhole ||
        v.oracle == OracleKind::kIgpGroundTruth ||
        v.oracle == OracleKind::kLoopFreedom) {
      found_forwarding_violation = true;
    }
  }
  EXPECT_TRUE(found_forwarding_violation);
}

TEST(Oracles, CostlierParallelLinkTripsIgpGroundTruthOnly) {
  // Two routers joined by a cost-5 and then a cost-1 link. The IGP routes
  // over the cost-1 link; moved onto the cost-5 link, the loopback route
  // still delivers, but its trace no longer costs the Dijkstra distance.
  net::Topology topo;
  const auto d = topo.add_domain("parallel");
  const auto r0 = topo.add_router(d);
  const auto r1 = topo.add_router(d);
  const auto costly = topo.add_link(r0, r1, 5);
  topo.add_link(r0, r1, 1);
  core::EvolvableInternet internet(std::move(topo));
  internet.start();
  internet.converge();
  for (const auto& v : check_invariants(internet)) ADD_FAILURE() << v.describe();

  const auto loopback = internet.topology().router(r1).loopback;
  internet.network().fib(r0).insert(
      {net::Prefix::host(loopback), r1, costly, net::RouteOrigin::kIgp, 1});
  const auto violations = check_invariants(internet);
  ASSERT_FALSE(violations.empty());
  for (const auto& v : violations) {
    EXPECT_EQ(v.oracle, OracleKind::kIgpGroundTruth) << v.describe();
  }
}

TEST(Oracles, CorruptedBgpEntryTripsInstallEquivalenceOnly) {
  auto internet = healthy_internet();
  // Bump the metric of one BGP entry: forwarding is unchanged, but the
  // entry no longer matches what a full install pass writes.
  std::optional<net::FibEntry> victim;
  net::NodeId owner;
  for (const auto& router : internet->topology().routers()) {
    internet->network().fib(router.id).for_each([&](const net::FibEntry& entry) {
      if (!victim && entry.origin == net::RouteOrigin::kBgp) {
        victim = entry;
        owner = router.id;
      }
    });
    if (victim) break;
  }
  ASSERT_TRUE(victim.has_value());
  ++victim->metric;
  internet->network().fib(owner).insert(*victim);

  const auto violations = check_invariants(*internet);
  ASSERT_FALSE(violations.empty());
  for (const auto& v : violations) {
    EXPECT_EQ(v.oracle, OracleKind::kInstallEquivalence) << v.describe();
  }
}

TEST(Oracles, MutatedVirtualLinkTripsVnBoneRebuildEquivalenceOnly) {
  auto internet = healthy_internet();
  // Router 10's stub peers only with the undeployed transit 1, so it joins
  // through an anycast bootstrap tunnel.
  internet->deploy_router(net::NodeId{10});
  internet->converge();
  const auto& bone = internet->vnbone();
  const VnBoneBuild built{bone.virtual_links(), bone.partition_repairs(),
                          bone.bootstrap_tunnels()};
  EXPECT_TRUE(check_invariants(*internet).empty());
  EXPECT_TRUE(check_vnbone_rebuild_equivalence(*internet, built).empty());
  const auto tunnel = std::find_if(built.links.begin(), built.links.end(), [](const auto& l) {
    return l.source == vnbone::VirtualLink::Source::kAnycastBootstrap;
  });
  ASSERT_NE(tunnel, built.links.end());
  const auto index = static_cast<std::size_t>(tunnel - built.links.begin());

  auto expect_only_rebuild_violation = [&](const VnBoneBuild& mutated) {
    const auto violations = check_vnbone_rebuild_equivalence(*internet, mutated);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().oracle, OracleKind::kVnBoneRebuildEquivalence)
        << violations.front().describe();
  };
  VnBoneBuild costlier = built;
  ++costlier.links[index].underlay_cost;
  expect_only_rebuild_violation(costlier);

  // The same tunnel to the one active member it does not touch.
  VnBoneBuild retargeted = built;
  auto& moved = retargeted.links[index];
  for (const net::NodeId m : bone.active_members()) {
    if (m != moved.a && m != moved.b) {
      moved.b = m;
      break;
    }
  }
  ASSERT_NE(moved, *tunnel);
  expect_only_rebuild_violation(retargeted);
}

bool same_entry(const net::FibEntry* a, const net::FibEntry* b) {
  return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}

net::FibEntry route_via(net::Prefix prefix, std::uint32_t next_hop) {
  net::FibEntry entry;
  entry.prefix = prefix;
  entry.next_hop = net::NodeId{next_hop};
  return entry;
}

TEST(Oracles, FibEquivalenceCatchesADifferenceNoProbeHits) {
  auto internet = healthy_internet();
  const auto& topo = internet->topology();
  const net::NodeId router{0};
  // A /29 deep inside another domain's /16: past every loopback and away
  // from both ends of the /16.
  const auto& far = topo.domains().back();
  ASSERT_NE(far.id, topo.router(router).domain);
  const net::Prefix deep{net::Ipv4Addr{far.prefix.address().bits() | 0x7A40u}, 29};

  // Router 0's table twice over, plus the /29 with a different next hop in
  // each: two Fibs of one epoch that differ only inside the /29.
  net::Fib fib;
  net::Fib other;
  for (const auto& entry : internet->network().fib(router).entries()) {
    fib.insert(entry);
    other.insert(entry);
  }
  fib.insert(route_via(deep, 1));
  other.insert(route_via(deep, 2));
  ASSERT_EQ(fib.epoch(), other.epoch());
  net::CompiledFib compiled;
  compiled.compile(other);

  // The fixed probes: both ends of the address space and of every domain's
  // /16, and every loopback. None reaches the /29, so probing alone passes.
  std::vector<net::Ipv4Addr> probes{net::Ipv4Addr{0}, net::Ipv4Addr{0xFFFFFFFFu}};
  for (const auto& r : topo.routers()) probes.push_back(r.loopback);
  for (const auto& domain : topo.domains()) {
    probes.push_back(domain.prefix.address());
    probes.push_back(net::Ipv4Addr{domain.prefix.address().bits() | 0xFFFFu});
  }
  std::sort(probes.begin(), probes.end());
  for (const net::Ipv4Addr probe : probes) {
    ASSERT_FALSE(deep.contains(probe));
    EXPECT_TRUE(same_entry(fib.lookup(probe), compiled.lookup(probe)));
  }

  const auto violations = check_fib_equivalence(router, fib, compiled, probes);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().oracle, OracleKind::kFibEquivalence);
  EXPECT_NE(violations.front().detail.find(std::to_string(deep.address().bits())),
            std::string::npos)
      << violations.front().describe();

  net::CompiledFib own;
  own.compile(fib);
  EXPECT_TRUE(check_fib_equivalence(router, fib, own, probes).empty());
}

TEST(Oracles, FibEquivalenceReportsALaggingCompiledEpoch) {
  net::Fib fib;
  fib.insert(route_via(net::Prefix{net::Ipv4Addr{0x0A000000u}, 8}, 1));
  net::CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_TRUE(check_fib_equivalence(net::NodeId{3}, fib, compiled).empty());
  fib.insert(route_via(net::Prefix{net::Ipv4Addr{0x0A010000u}, 16}, 2));
  const auto violations = check_fib_equivalence(net::NodeId{3}, fib, compiled);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().oracle, OracleKind::kFibEquivalence);
  EXPECT_NE(violations.front().detail.find("compiled epoch lags"), std::string::npos);
}

TEST(LpmPartition, MatchesFibLookupOnRandomTables) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    sim::Rng rng{seed * 6007};
    net::Fib fib;
    std::uint32_t next_hop = 0;
    const auto add = [&](net::Prefix prefix) { fib.insert(route_via(prefix, next_hop++)); };
    // Both ends of the address space in most tables.
    if (seed % 3 != 0) add(net::Prefix{net::Ipv4Addr{0}, 0});
    if (seed % 4 != 0) add(net::Prefix::host(net::Ipv4Addr{0xFFFFFFFFu}));
    const auto count = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < count; ++i) {
      // Clustered, so prefixes nest and share first or last addresses.
      const auto base = static_cast<std::uint32_t>(rng.uniform_int(0, 3)) << 30;
      const auto bits = base | static_cast<std::uint32_t>(rng.next_u64() & 0x3FFFFFFF);
      add(net::Prefix{net::Ipv4Addr{bits}, static_cast<std::uint8_t>(rng.uniform_int(0, 32))});
    }

    std::vector<LpmPiece> pieces;
    for_each_lpm_piece(fib, [&](const LpmPiece& piece) {
      pieces.push_back(piece);
      return true;
    });
    ASSERT_FALSE(pieces.empty());
    EXPECT_EQ(pieces.front().first, 0u);
    EXPECT_EQ(pieces.back().last, 0xFFFFFFFFu);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const LpmPiece& piece = pieces[i];
      ASSERT_LE(piece.first, piece.last);
      if (i > 0) {
        EXPECT_EQ(piece.first, pieces[i - 1].last + 1) << "seed " << seed;
        EXPECT_NE(piece.winner, pieces[i - 1].winner) << "seed " << seed;  // maximal
      }
      const std::uint64_t width = std::uint64_t{piece.last} - piece.first + 1;
      const auto inside = static_cast<std::uint32_t>(piece.first + rng.next_u64() % width);
      for (const std::uint32_t addr : {piece.first, inside, piece.last}) {
        EXPECT_EQ(fib.lookup(net::Ipv4Addr{addr}), piece.winner)
            << "seed " << seed << " addr " << addr;
      }
    }

    net::CompiledFib compiled;
    compiled.compile(fib);
    EXPECT_EQ(compiled.range_count(), pieces.size()) << "seed " << seed;
    EXPECT_TRUE(check_fib_equivalence(net::NodeId{0}, fib, compiled).empty());

    std::size_t visited = 0;
    for_each_lpm_piece(fib, [&](const LpmPiece&) { return ++visited < 2; });
    EXPECT_EQ(visited, std::min<std::size_t>(2, pieces.size()));
  }
}

TEST(Oracles, ViolationDescribesItself) {
  Violation violation{OracleKind::kNoBlackhole, 3, "unit-test detail"};
  const std::string text = violation.describe();
  EXPECT_NE(text.find("no-blackhole"), std::string::npos);
  EXPECT_NE(text.find("unit-test detail"), std::string::npos);
}

}  // namespace
}  // namespace evo::check
