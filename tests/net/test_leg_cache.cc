// The batch path's leg cache (Network::Batch, trace_batch) against the
// uncached Network::trace: short-TTL probes, hit accounting, and growth
// past the cache's cap.
#include "net/network.h"

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/topology_gen.h"

namespace evo::net {
namespace {

/// A line of `n` routers with static routes toward every router's subnet.
Network wired_line(std::size_t n) {
  Network net(single_domain_line(n, 2));
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  for (std::size_t i = 0; i < routers.size(); ++i) {
    for (std::size_t j = 0; j < routers.size(); ++j) {
      if (i == j) continue;
      const NodeId hop = routers[j > i ? i + 1 : i - 1];
      LinkId link = LinkId::invalid();
      for (const LinkId l : topo.router(routers[i]).links) {
        if (topo.link(l).other_end(routers[i]) == hop) link = l;
      }
      const auto& r = topo.router(routers[j]);
      net.fib(routers[i]).insert(
          FibEntry{Topology::router_subnet(r.domain, r.index_in_domain), hop, link,
                   RouteOrigin::kStatic, 1});
    }
  }
  return net;
}

void expect_matches_trace(const Network& net, std::span<const Network::ProbeSpec> probes) {
  const auto batch = net.trace_batch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto single = net.trace(probes[i].from, probes[i].dst, probes[i].max_hops);
    EXPECT_TRUE(batch[i] == single)
        << "probe " << i << " (max_hops " << probes[i].max_hops
        << "): batch " << net.describe(batch[i]) << ", trace " << net.describe(single);
  }
}

TEST(LegCache, ShortTtlProbeNeverGetsACachedFullResult) {
  const Network net = wired_line(5);
  const auto& routers = net.topology().domain(DomainId{0}).routers;
  const Ipv4Addr far = net.topology().router(routers[4]).loopback;
  // The full walk is cached first, then the same (from, dst) with fewer
  // hops than the path, then the other way round in a second batch.
  const std::vector<Network::ProbeSpec> probes = {
      {routers[0], far, 255}, {routers[0], far, 2}, {routers[0], far, 255}};
  const auto batch = net.trace_batch(probes);
  EXPECT_TRUE(batch[0].delivered());
  EXPECT_EQ(batch[1].outcome, Network::TraceResult::Outcome::kTtlExpired);
  EXPECT_EQ(batch[1].hop_count(), 2u);
  EXPECT_TRUE(batch[2].delivered());
  expect_matches_trace(net, probes);
  const std::vector<Network::ProbeSpec> reversed = {{routers[0], far, 3},
                                                    {routers[0], far, 4}};
  expect_matches_trace(net, reversed);
}

TEST(LegCache, HitsMoveOnAWarmBatchOnly) {
  Network net = wired_line(4);
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  std::vector<Network::ProbeSpec> probes;
  for (const NodeId from : routers) {
    for (const NodeId to : routers) {
      probes.push_back({.from = from, .dst = topo.router(to).loopback});
    }
  }

  // A fresh stamp: every probe is walked.
  const auto before = net.forwarding_stats();
  net.trace_batch(probes);
  const auto cold = net.forwarding_stats();
  EXPECT_EQ(cold.leg_hits, before.leg_hits);
  EXPECT_EQ(cold.traces, before.traces + probes.size());
  EXPECT_GT(cold.lookups, before.lookups);

  // The same batch again: every probe is a hit, and no walk is counted.
  net.trace_batch(probes);
  const auto warm = net.forwarding_stats();
  EXPECT_EQ(warm.leg_hits, cold.leg_hits + probes.size());
  EXPECT_EQ(warm.traces, cold.traces);
  EXPECT_EQ(warm.lookups, cold.lookups);

  // Any forwarding write, even to a prefix no probe reads, empties the cache.
  net.fib(routers[1]).insert(FibEntry{Prefix{Ipv4Addr{9, 0, 0, 0}, 8}, routers[0],
                                      LinkId{0}, RouteOrigin::kStatic, 1});
  net.trace_batch(probes);
  const auto fresh = net.forwarding_stats();
  EXPECT_EQ(fresh.leg_hits, warm.leg_hits);
  EXPECT_EQ(fresh.traces, warm.traces + probes.size());

  // Network::trace never reads the cache.
  net.trace(probes.front().from, probes.front().dst);
  EXPECT_EQ(net.forwarding_stats().leg_hits, fresh.leg_hits);
  EXPECT_EQ(net.forwarding_stats().traces, fresh.traces + 1);
}

TEST(LegCache, EveryNetworkWriteMovesTheStamp) {
  // Each write changes what a probe gets; the next batch must see it.
  Network net = wired_line(4);
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  const Ipv4Addr far = topo.router(routers[3]).loopback;
  const std::vector<Network::ProbeSpec> probes = {
      {routers[0], far, 255}, {routers[3], topo.router(routers[0]).loopback, 255}};
  const NodeId mid = routers[1];
  const std::vector<FibEntry> statics = net.fib(mid).entries();
  const FibEntry blackhole{Prefix::host(far), NodeId::invalid(), LinkId::invalid(),
                           RouteOrigin::kStatic, 0};
  const LinkId first_link = topo.router(routers[0]).links.front();
  auto restore = [&] {
    std::vector<FibEntry> kept;
    for (const FibEntry& e : statics) {
      if (e.origin == RouteOrigin::kStatic) kept.push_back(e);
    }
    net.fib(mid).replace_origins({RouteOrigin::kStatic}, kept);
  };
  const std::vector<std::pair<const char*, std::function<void()>>> writes = {
      {"fib insert", [&] { net.fib(mid).insert(blackhole); }},
      {"fib remove", [&] { net.fib(mid).remove(blackhole.prefix); }},
      {"replace_origins",
       [&] { net.fib(mid).replace_origins({RouteOrigin::kStatic}, {&blackhole, 1}); }},
      {"replace_origins back", restore},
      {"remove_origin", [&] { net.fib(mid).remove_origin(RouteOrigin::kStatic); }},
      {"replace_origins again", restore},
      {"link down", [&] { net.topology().set_link_up(first_link, false); }},
      {"link up", [&] { net.topology().set_link_up(first_link, true); }},
      {"node down", [&] { net.topology().set_node_up(mid, false); }},
      {"node up", [&] { net.topology().set_node_up(mid, true); }},
      {"add local address", [&] { net.add_local_address(mid, far); }},
      {"remove local address", [&] { net.remove_local_address(mid, far); }},
  };
  net.trace_batch(probes);
  for (const auto& [what, write] : writes) {
    SCOPED_TRACE(what);
    const auto before = net.trace_batch(probes);
    write();
    expect_matches_trace(net, probes);
    EXPECT_FALSE(before[0] == net.trace(probes[0].from, probes[0].dst))
        << "the write must change what the first probe gets";
  }
}

TEST(LegCache, MatchesTracePastItsCap) {
  // More distinct legs than the cache keeps: legs past the cap are walked
  // every time, and the kept ones still hit.
  const Network net = wired_line(4);
  const auto& topo = net.topology();
  const auto& routers = topo.domain(DomainId{0}).routers;
  std::vector<Network::ProbeSpec> probes;
  for (const NodeId from : routers) {
    for (const NodeId to : routers) {
      const auto& r = topo.router(to);
      const std::uint32_t base =
          Topology::router_subnet(r.domain, r.index_in_domain).address().bits();
      for (std::uint32_t host = 0; host < 256; ++host) {
        for (unsigned max_hops : {255u, 1u, 2u, 3u, 4u, 5u}) {
          probes.push_back({.from = from, .dst = Ipv4Addr{base | host}, .max_hops = max_hops});
        }
      }
    }
  }
  ASSERT_GT(probes.size(), std::size_t{1} << 14);
  expect_matches_trace(net, probes);
  const auto before = net.forwarding_stats();
  expect_matches_trace(net, probes);
  const auto after = net.forwarding_stats();
  EXPECT_GT(after.leg_hits, before.leg_hits);
  EXPECT_LT(after.leg_hits - before.leg_hits, probes.size());
}

}  // namespace
}  // namespace evo::net
