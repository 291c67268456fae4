// Experiment E1 (Figure 1): seamless spread of deployment.
//
// Part A replays the figure exactly: IPv8 deployed successively in X, Y,
// Z; at each stage we report which provider serves client C, the
// redirection cost, and the number of client-side reconfigurations
// (must stay zero).
//
// Part B scales the claim: on a transit-stub Internet, sweep the fraction
// of deployed domains and measure the distance from every router to its
// anycast ingress. The paper's claim is the redirection distance shrinks
// monotonically while clients stay untouched.
#include "bench_util.h"

#include "anycast/resolver.h"
#include "core/scenario.h"
#include "sim/metrics.h"

namespace evo {
namespace {

using core::EvolvableInternet;
using net::DomainId;
using net::NodeId;

void figure_replay() {
  bench::banner("E1/A: Figure 1 replay (IPv8 in X, then Y, then Z)");
  auto fig = core::make_figure1();
  core::Options options;
  options.vnbone.anycast_mode = anycast::InterDomainMode::kGlobalRoutes;
  EvolvableInternet net(std::move(fig.topology), options);
  net.start();
  const NodeId client = net.topology().host(fig.client).access_router;

  bench::row("%-8s %-16s %-12s %-18s", "stage", "serving-ISP", "cost",
             "client-reconfigs");
  int stage = 0;
  net::Ipv4Addr last_address;
  int reconfigs = 0;
  for (const DomainId d : {fig.x, fig.y, fig.z}) {
    net.deploy_domain(d);
    net.converge();
    ++stage;
    const auto& group = net.anycast().group(net.vnbone().anycast_group());
    // Client-visible config: the anycast address. Count changes.
    if (stage > 1 && group.address != last_address) ++reconfigs;
    last_address = group.address;
    const auto probe = anycast::probe(net.network(), group, client);
    bench::row("%-8d %-16s %-12llu %-18d", stage,
               probe.delivered()
                   ? net.topology()
                         .domain(net.topology().router(probe.member).domain)
                         .name.c_str()
                   : "<none>",
               static_cast<unsigned long long>(probe.trace.cost), reconfigs);
  }
}

void scaled_sweep() {
  bench::banner(
      "E1/B: redirection distance vs deployment fraction "
      "(transit-stub, 20 domains, option-1 anycast)");
  bench::row("%-12s %-10s %-12s %-12s %-12s %-10s", "deployed", "fraction",
             "mean-dist", "p95-dist", "max-dist", "delivered");

  core::Options options;
  options.vnbone.anycast_mode = anycast::InterDomainMode::kGlobalRoutes;
  auto net = bench::make_internet({.transit_domains = 4,
                                   .stubs_per_transit = 4,
                                   .seed = 1001},
                                  /*hosts_per_stub=*/0, options);
  const auto& domains = net->topology().domains();
  std::size_t deployed = 0;
  for (const auto& domain : domains) {
    net->deploy_domain(domain.id);
    net->converge();
    ++deployed;
    const auto& group = net->anycast().group(net->vnbone().anycast_group());
    const anycast::ClosestMemberOracle oracle(net->topology(), group);
    sim::Summary dist;
    std::size_t delivered_count = 0;
    // Batched probe fan-out: one trace_batch under the hood.
    std::vector<NodeId> sources;
    sources.reserve(net->topology().router_count());
    for (const auto& router : net->topology().routers()) sources.push_back(router.id);
    for (const auto& probe :
         anycast::probe_batch(net->network(), group, sources, oracle)) {
      if (!probe.delivered()) continue;
      ++delivered_count;
      dist.add(static_cast<double>(probe.trace.cost));
    }
    bench::row("%-12zu %-10.2f %-12.2f %-12.0f %-12.0f %zu/%zu", deployed,
               static_cast<double>(deployed) / static_cast<double>(domains.size()),
               dist.mean(), dist.percentile(95), dist.max(), delivered_count,
               net->topology().router_count());
  }
  bench::row(
      "claim: distance to the IPvN ingress shrinks as deployment spreads; "
      "delivery is total throughout (universal access).");
}

}  // namespace
}  // namespace evo

int main() {
  evo::figure_replay();
  evo::scaled_sweep();
  return 0;
}
