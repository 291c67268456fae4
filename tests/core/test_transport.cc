// Event-driven IPvN transport: datagrams as simulator events with real
// latency accrual across all three legs of the data path.
#include "core/transport.h"

#include <gtest/gtest.h>

#include <map>

#include "net/topology_gen.h"

namespace evo::core {
namespace {

using net::DomainId;
using net::HostId;

struct Fixture {
  explicit Fixture(Options options = {}) {
    auto topo = net::generate_transit_stub({.transit_domains = 2,
                                            .stubs_per_transit = 2,
                                            .seed = 55});
    sim::Rng rng{55};
    net::attach_hosts(topo, 2, rng);
    internet = std::make_unique<EvolvableInternet>(std::move(topo), options);
    internet->start();
  }

  std::unique_ptr<EvolvableInternet> internet;
};

TEST(IpvnTransport, DeliversWithPositiveLatency) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  sim::Duration latency;
  bool received = false;
  transport.listen(HostId{5}, [&](HostId from, HostId to, std::uint64_t id,
                                  sim::Duration elapsed) {
    received = true;
    EXPECT_EQ(from, HostId{0});
    EXPECT_EQ(to, HostId{5});
    EXPECT_EQ(id, 7u);
    latency = elapsed;
  });
  transport.send(HostId{0}, HostId{5}, 7);
  f.internet->simulator().run();
  ASSERT_TRUE(received);
  EXPECT_GT(latency, sim::Duration::zero());
  EXPECT_EQ(transport.datagrams_sent(), 1u);
  EXPECT_EQ(transport.datagrams_received(), 1u);
  EXPECT_EQ(transport.datagrams_failed(), 0u);
}

TEST(IpvnTransport, FailsWithoutDeployment) {
  Fixture f;
  IpvnTransport transport(*f.internet);
  bool failed = false;
  transport.send(HostId{0}, HostId{5}, 1,
                 [&](EndToEndTrace::Failure failure, std::uint64_t id) {
                   failed = true;
                   EXPECT_EQ(failure, EndToEndTrace::Failure::kNoDeployment);
                   EXPECT_EQ(id, 1u);
                 });
  f.internet->simulator().run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(transport.datagrams_failed(), 1u);
}

TEST(IpvnTransport, LatencyMatchesTraceTopology) {
  // The event-driven latency must equal the sum of per-link latencies
  // along the synchronous trace's segments.
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  const auto trace = send_ipvn(*f.internet, HostId{0}, HostId{5});
  ASSERT_TRUE(trace.delivered);
  sim::Duration expected = sim::Duration::zero();
  for (const auto& segment : trace.segments) expected += segment.trace.latency;

  IpvnTransport transport(*f.internet);
  sim::Duration measured;
  transport.listen(HostId{5},
                   [&](HostId, HostId, std::uint64_t, sim::Duration elapsed) {
                     measured = elapsed;
                   });
  transport.send(HostId{0}, HostId{5});
  f.internet->simulator().run();
  EXPECT_EQ(measured, expected);
}

TEST(IpvnTransport, ManyDatagramsAllPairs) {
  Fixture f;
  f.internet->deploy_domain(DomainId{1});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  std::size_t received = 0;
  const auto& hosts = f.internet->topology().hosts();
  for (const auto& h : hosts) {
    transport.listen(h.id, [&](HostId, HostId, std::uint64_t, sim::Duration) {
      ++received;
    });
  }
  std::size_t sent = 0;
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      if (src.id == dst.id) continue;
      transport.send(src.id, dst.id, ++sent);
    }
  }
  f.internet->simulator().run();
  EXPECT_EQ(received, sent);
  EXPECT_EQ(transport.datagrams_received(), sent);
  EXPECT_EQ(transport.datagrams_failed(), 0u);
}

TEST(IpvnTransport, UnlistenedDeliveryStillCounts) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  IpvnTransport transport(*f.internet);
  transport.send(HostId{0}, HostId{5});
  f.internet->simulator().run();
  EXPECT_EQ(transport.datagrams_received(), 1u);
}

// Differential: the event-driven transport and the synchronous tracer walk
// the same data path, so for every host pair a datagram is received iff
// send_ipvn delivers it (with the latency of the trace's segments), and
// otherwise fails with the same Failure. Returns the outcomes seen.
std::map<EndToEndTrace::Failure, std::size_t> expect_transport_matches_trace(
    EvolvableInternet& internet) {
  struct Outcome {
    bool received = false;
    sim::Duration latency;
    std::optional<EndToEndTrace::Failure> failure;
  };
  const auto& hosts = internet.topology().hosts();
  std::vector<Outcome> outcomes(hosts.size() * hosts.size());
  IpvnTransport transport(internet);
  for (const auto& h : hosts) {
    transport.listen(h.id, [&](HostId from, HostId to, std::uint64_t id,
                               sim::Duration latency) {
      EXPECT_EQ(id, from.value() * hosts.size() + to.value());
      outcomes[id].received = true;
      outcomes[id].latency = latency;
    });
  }
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      transport.send(src.id, dst.id, src.id.value() * hosts.size() + dst.id.value(),
                     [&](EndToEndTrace::Failure failure, std::uint64_t id) {
                       outcomes[id].failure = failure;
                     });
    }
  }
  internet.simulator().run();

  std::map<EndToEndTrace::Failure, std::size_t> seen;
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      SCOPED_TRACE(std::to_string(src.id.value()) + " -> " +
                   std::to_string(dst.id.value()));
      const Outcome& got = outcomes[src.id.value() * hosts.size() + dst.id.value()];
      const auto trace = send_ipvn(internet, src.id, dst.id);
      ++seen[trace.failure];
      EXPECT_EQ(got.received, trace.delivered);
      if (trace.delivered) {
        sim::Duration expected = sim::Duration::zero();
        for (const auto& segment : trace.segments) expected += segment.trace.latency;
        EXPECT_EQ(got.latency, expected);
        EXPECT_FALSE(got.failure.has_value());
      } else {
        EXPECT_EQ(got.failure, std::optional{trace.failure});
      }
    }
  }
  return seen;
}

TEST(IpvnTransport, MatchesTraceWithoutDeployment) {
  Fixture f;
  const auto seen = expect_transport_matches_trace(*f.internet);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen.contains(EndToEndTrace::Failure::kNoDeployment));
}

TEST(IpvnTransport, MatchesTraceUnderPartialDeployment) {
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{3});
  f.internet->converge();
  const auto seen = expect_transport_matches_trace(*f.internet);
  EXPECT_GT(seen.at(EndToEndTrace::Failure::kNone), 0u);
}

TEST(IpvnTransport, MatchesTraceAcrossAFailedLink) {
  // The link fails silently (no protocol is told), so stale FIBs send
  // datagrams into it and legs fail at the data plane.
  Fixture f;
  f.internet->deploy_domain(DomainId{0});
  f.internet->deploy_domain(DomainId{3});
  f.internet->converge();
  auto& topo = f.internet->network().topology();
  std::size_t failed_pairs = 0;
  for (const auto& link : topo.links()) {
    topo.set_link_up(link.id, false);
    const auto seen = expect_transport_matches_trace(*f.internet);
    for (const auto& [failure, count] : seen) {
      if (failure != EndToEndTrace::Failure::kNone) failed_pairs += count;
    }
    topo.set_link_up(link.id, true);
  }
  EXPECT_GT(failed_pairs, 0u);
}

TEST(IpvnTransport, MatchesTraceWhenVnRoutingFails) {
  // Endhost-advertised egress with no registered endhost: self-addressed
  // destinations have no vN-Bone route.
  Options options;
  options.vnbone.egress_mode = vnbone::EgressMode::kEndhostAdvertised;
  Fixture f(options);
  f.internet->deploy_domain(DomainId{0});
  f.internet->converge();
  const auto seen = expect_transport_matches_trace(*f.internet);
  EXPECT_GT(seen.at(EndToEndTrace::Failure::kVnRoutingFailed), 0u);
}

}  // namespace
}  // namespace evo::core
