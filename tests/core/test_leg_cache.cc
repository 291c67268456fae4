// send_ipvn_batch, whose ingress, tunnel and egress legs go through the
// leg cache, against the uncached send_ipvn after every kind of
// forwarding-input write: each batch must equal the single sends field by
// field, hops included.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::HostId;
using net::NodeId;

struct Fixture {
  Fixture() {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 55});
    sim::Rng rng{55};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo), Options{});
    internet->start();
    internet->deploy_domain(net::DomainId{0});
    internet->converge();
    // Every pair from the first hosts, each twice, so a batch repeats legs.
    const auto hosts = static_cast<std::uint32_t>(internet->topology().host_count());
    for (int round = 0; round < 2; ++round) {
      for (std::uint32_t s = 0; s < 8 && s < hosts; ++s) {
        for (std::uint32_t d = 0; d < hosts; ++d) {
          if (s != d) pairs.push_back({HostId{s}, HostId{d}});
        }
      }
    }
  }

  /// The batch, checked against send_ipvn pair by pair.
  std::vector<EndToEndTrace> checked_batch() const {
    auto batch = send_ipvn_batch(*internet, pairs);
    EXPECT_EQ(batch.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size() && i < batch.size(); ++i) {
      const auto single = send_ipvn(*internet, pairs[i].src, pairs[i].dst);
      const auto& got = batch[i];
      const std::string where = "pair " + std::to_string(i) + ": batch " +
                                got.describe() + ", single " + single.describe();
      EXPECT_EQ(got.delivered, single.delivered) << where;
      EXPECT_EQ(got.failure, single.failure) << where;
      EXPECT_EQ(got.ingress, single.ingress) << where;
      EXPECT_EQ(got.egress, single.egress) << where;
      EXPECT_EQ(got.vn_route.vn_hops, single.vn_route.vn_hops) << where;
      EXPECT_EQ(got.vn_route.vn_cost, single.vn_route.vn_cost) << where;
      EXPECT_EQ(got.vn_route.exits_to_legacy, single.vn_route.exits_to_legacy) << where;
      EXPECT_EQ(got.segments.size(), single.segments.size()) << where;
      for (std::size_t k = 0; k < got.segments.size() && k < single.segments.size(); ++k) {
        EXPECT_EQ(got.segments[k].kind, single.segments[k].kind) << where;
        EXPECT_TRUE(got.segments[k].trace == single.segments[k].trace)
            << where << ", segment " << k;
      }
    }
    return batch;
  }

  std::unique_ptr<EvolvableInternet> internet;
  std::vector<HostPair> pairs;
};

TEST(LegCache, SendIpvnBatchMatchesSendIpvnAfterEveryForwardingWrite) {
  Fixture f;
  auto& network = f.internet->network();
  const auto anycast = f.internet->vnbone().anycast_address();

  // Pick an ingress leg that crosses at least one router between the
  // source's access router and the member it lands on: `mid` is that
  // router, `link` the one the access router forwards over.
  const auto warm = f.checked_batch();
  NodeId access = NodeId::invalid();
  NodeId mid = NodeId::invalid();
  for (const auto& trace : warm) {
    if (trace.segments.empty()) continue;
    const auto& hops = trace.segments.front().trace.hops;
    if (trace.segments.front().trace.delivered() && hops.size() >= 3) {
      access = hops[0];
      mid = hops[1];
      break;
    }
  }
  ASSERT_TRUE(mid.valid()) << "no ingress leg with an intermediate router";
  const net::FibEntry* route = network.fib(access).lookup(anycast);
  ASSERT_NE(route, nullptr);
  const net::LinkId link = route->out_link;
  ASSERT_TRUE(link.valid());
  const net::FibEntry blackhole{net::Prefix::host(anycast), NodeId::invalid(),
                                net::LinkId::invalid(), net::RouteOrigin::kStatic, 0};
  const std::vector<std::pair<const char*, std::function<void()>>> writes = {
      {"fib insert", [&] { network.fib(mid).insert(blackhole); }},
      {"fib remove", [&] { network.fib(mid).remove(blackhole.prefix); }},
      {"replace_origins",
       [&] { network.fib(mid).replace_origins({net::RouteOrigin::kStatic}, {&blackhole, 1}); }},
      {"replace_origins back",
       [&] { network.fib(mid).replace_origins({net::RouteOrigin::kStatic}, {}); }},
      {"set_link_up down", [&] { network.topology().set_link_up(link, false); }},
      {"set_link_up up", [&] { network.topology().set_link_up(link, true); }},
      {"set_node_up down", [&] { network.topology().set_node_up(mid, false); }},
      {"set_node_up up", [&] { network.topology().set_node_up(mid, true); }},
      {"add_local_address", [&] { network.add_local_address(mid, anycast); }},
      {"remove_local_address", [&] { network.remove_local_address(mid, anycast); }},
  };
  for (const auto& [what, write] : writes) {
    SCOPED_TRACE(what);
    const auto before = f.checked_batch();
    const auto hits = network.forwarding_stats().leg_hits;
    f.checked_batch();
    EXPECT_GT(network.forwarding_stats().leg_hits, hits) << "a warm batch hits";
    write();
    const auto after = f.checked_batch();
    std::size_t changed = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i].delivered != before[i].delivered) ++changed;
    }
    EXPECT_GT(changed, 0u) << "the write must change some send's outcome";
  }
}

}  // namespace
}  // namespace evo::core
