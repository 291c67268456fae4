// Experiment E10 (§2.2 vs §2.3): application-level broker redirection vs
// network-level anycast redirection — the paper's central architectural
// choice, measured.
//
// Part A: ISP participation. Brokers depend on ISPs reporting deployment
// ("third party-brokers are dependent on ISPs for the deployment
// information needed to effect redirection"); we sweep the participating
// fraction and measure delivery and ingress proximity. Anycast needs no
// participation at all.
//
// Part B: churn and staleness. Deployment changes between broker
// refreshes produce redirects to routers that no longer serve IPvN; the
// network-level mechanism "self-manages" — we measure failure rates for
// both as routers churn.
#include "bench_util.h"

#include "anycast/resolver.h"
#include "core/universal_access.h"
#include "redirect/broker.h"
#include "sim/metrics.h"

namespace evo {
namespace {

using core::EvolvableInternet;
using net::DomainId;
using net::HostId;
using net::NodeId;

void participation_sweep() {
  bench::banner(
      "E10/A: broker participation sweep vs anycast (transit-stub, 20 "
      "domains, transits deployed)");
  bench::row("%-26s %-12s %-16s %-14s", "redirection", "delivered",
             "mean-ingress-dist", "vs-optimal");

  auto net = bench::make_internet({.transit_domains = 4,
                                   .stubs_per_transit = 4,
                                   .seed = 10010},
                                  /*hosts_per_stub=*/2);
  for (const auto& d : net->topology().domains()) {
    if (!d.stub) net->deploy_domain(d.id);
  }
  net->converge();
  const auto& topo = net->topology();
  const auto& hosts = topo.hosts();
  const auto& group = net->anycast().group(net->vnbone().anycast_group());
  const anycast::ClosestMemberOracle oracle(topo, group);

  std::vector<core::HostPair> pairs;
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      if (src.id != dst.id) pairs.push_back({src.id, dst.id});
    }
  }

  // `batch_sender` maps the pair list to one EndToEndTrace per pair; the
  // anycast arm rides core::send_ipvn_batch, so legs repeated across the
  // sweep are walked once.
  auto measure = [&](auto&& batch_sender, const char* label) {
    sim::Summary ingress_dist;
    sim::Summary optimal_dist;
    std::size_t delivered = 0;
    const std::vector<core::EndToEndTrace> traces = batch_sender(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const core::EndToEndTrace& trace = traces[i];
      if (!trace.delivered) continue;
      ++delivered;
      ingress_dist.add(static_cast<double>(trace.segments.front().trace.cost));
      optimal_dist.add(static_cast<double>(
          oracle.distance_from(topo.host(pairs[i].src).access_router)));
    }
    bench::row("%-26s %zu/%-9zu %-16.2f %+.2f", label, delivered, pairs.size(),
               ingress_dist.mean(), ingress_dist.mean() - optimal_dist.mean());
  };

  sim::Rng rng{10};
  for (const double fraction : {0.25, 0.5, 0.75, 1.0}) {
    redirect::BrokerService broker(*net);
    for (const auto& d : topo.domains()) {
      if (rng.uniform() < fraction) broker.set_participation(d.id, true);
    }
    broker.refresh();
    char label[64];
    std::snprintf(label, sizeof label, "broker, %3.0f%% participation",
                  fraction * 100);
    measure(
        [&](const std::vector<core::HostPair>& batch) {
          std::vector<core::EndToEndTrace> traces;
          traces.reserve(batch.size());
          for (const auto& [s, d] : batch) {
            traces.push_back(redirect::send_ipvn_via_broker(*net, broker, s, d));
          }
          return traces;
        },
        label);
  }
  measure(
      [&](const std::vector<core::HostPair>& batch) {
        return core::send_ipvn_batch(*net, batch);
      },
      "anycast (network-level)");
  bench::row(
      "claim: the broker needs broad ISP participation to approach anycast "
      "proximity, and anycast requires none — the incentive gap the paper "
      "identifies.");
}

void churn_sweep() {
  bench::banner("E10/B: failure rate under deployment churn (refresh lag)");
  bench::row("%-24s %-18s %-18s", "churn events", "broker failures",
             "anycast failures");

  auto net = bench::make_internet({.transit_domains = 3,
                                   .stubs_per_transit = 3,
                                   .seed = 10020},
                                  /*hosts_per_stub=*/1);
  for (const auto& d : net->topology().domains()) net->deploy_domain(d.id);
  net->converge();
  redirect::BrokerService broker(*net);
  broker.set_all_participating();
  broker.refresh();

  const auto& hosts = net->topology().hosts();
  sim::Rng rng{20};
  auto failure_counts = [&](int churn_events) {
    // Churn: random routers undeploy (between broker refreshes).
    std::vector<NodeId> pool = net->vnbone().deployed_routers();
    for (int i = 0; i < churn_events && pool.size() > 1; ++i) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      net->undeploy_router(pool[idx]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    net->converge();
    std::vector<core::HostPair> pairs;
    for (const auto& src : hosts) {
      for (const auto& dst : hosts) {
        if (src.id != dst.id) pairs.push_back({src.id, dst.id});
      }
    }
    std::size_t broker_failures = 0;
    std::size_t anycast_failures = 0;
    for (const auto& [src, dst] : pairs) {
      if (!redirect::send_ipvn_via_broker(*net, broker, src, dst).delivered) {
        ++broker_failures;
      }
    }
    for (const auto& trace : core::send_ipvn_batch(*net, pairs)) {
      if (!trace.delivered) ++anycast_failures;
    }
    char broker_text[32];
    char anycast_text[32];
    std::snprintf(broker_text, sizeof broker_text, "%zu/%zu", broker_failures,
                  pairs.size());
    std::snprintf(anycast_text, sizeof anycast_text, "%zu/%zu", anycast_failures,
                  pairs.size());
    bench::row("%-24d %-18s %-18s", churn_events, broker_text, anycast_text);
  };

  failure_counts(0);
  failure_counts(4);   // cumulative: 4 routers gone
  failure_counts(8);   // cumulative: 12 routers gone
  bench::row(
      "claim: anycast redirection self-heals through routing; broker "
      "answers rot until the next refresh (\"brokers become a crucial "
      "component of the infrastructure\").");
}

}  // namespace
}  // namespace evo

int main() {
  evo::participation_sweep();
  evo::churn_sweep();
  return 0;
}
