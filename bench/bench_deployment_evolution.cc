// Experiment E8 (§2.1): the full evolution story. IPvN rolls out domain
// by domain over a transit-stub Internet; at every epoch we verify
// universal access (every host pair exchanges IPvN datagrams), and track
// stretch, native-address adoption, vN-Bone size, and per-ISP anycast
// traffic share (the revenue-flow signal of assumption A4).
//
// Epoch k is an independent ParallelSweep cell: it builds its own
// Internet, deploys the first k domains as one adoption batch, converges
// once, and measures. Epoch state is adoption-set-determined, so the
// per-epoch rows match the old serial deploy-converge-measure loop while
// cells run concurrently under `--threads N`.
#include "bench_util.h"

#include "anycast/resolver.h"
#include "core/universal_access.h"
#include "sim/metrics.h"
#include "sim/parallel.h"

namespace evo {
namespace {

using core::EvolvableInternet;

std::unique_ptr<EvolvableInternet> deployed_internet(std::size_t epochs) {
  auto net = bench::make_internet({.transit_domains = 4,
                                   .stubs_per_transit = 4,
                                   .seed = 8008},
                                  /*hosts_per_stub=*/2);
  const auto& domains = net->topology().domains();
  for (std::size_t i = 0; i < epochs; ++i) net->deploy_domain(domains[i].id);
  net->converge();
  return net;
}

sim::CellResult run_epoch(std::size_t epoch, std::size_t total_epochs) {
  auto net = deployed_internet(epoch);
  const auto& topo = net->topology();

  sim::CellResult result;
  // verify_universal_access rides core::send_ipvn_batch (and
  // compute_catchment below rides anycast::probe_batch), so a leg repeated
  // across probes of one adoption epoch is walked once (the leg cache).
  const auto report = core::verify_universal_access(*net, /*max_pairs=*/300);
  std::size_t native = 0;
  for (const auto& host : topo.hosts()) {
    if (net->hosts().has_native_address(host.id)) ++native;
  }
  bench::cell_row(result.text,
                  "%-8zu %-10s %zu/%-9zu %-12.2f %-14.3f %-12.3f %-12zu",
                  epoch, report.universal() ? "YES" : "NO",
                  report.pairs_delivered, report.pairs_checked,
                  report.mean_cost, report.mean_stretch,
                  static_cast<double>(native) /
                      static_cast<double>(topo.host_count()),
                  net->vnbone().virtual_links().size());
  result.metrics.observe("e8.mean_stretch", report.mean_stretch);
  result.metrics.observe("e8.pairs_delivered",
                         static_cast<double>(report.pairs_delivered));

  if (epoch == total_epochs) {
    // Revenue-flow signal: share of anycast ingress traffic captured per
    // deployed ISP at an intermediate stage would be the A4 argument; show
    // it for the final state as a catchment distribution instead.
    std::string& out = result.text;
    out += "--- final catchment per ISP (assumption A4's traffic signal) ---\n";
    const auto& group = net->anycast().group(net->vnbone().anycast_group());
    const auto catchment = anycast::compute_catchment(net->network(), group);
    std::vector<std::size_t> per_domain(topo.domain_count(), 0);
    for (const auto& router : topo.routers()) {
      const auto member = catchment.member[router.id.value()];
      if (member.valid()) ++per_domain[topo.router(member).domain.value()];
    }
    for (const auto& domain : topo.domains()) {
      if (per_domain[domain.id.value()] == 0) continue;
      bench::cell_row(out, "  %-14s captures ingress for %3zu routers",
                      domain.name.c_str(), per_domain[domain.id.value()]);
    }
  }
  return result;
}

void evolution_run(const bench::Args& args) {
  bench::banner(
      "E8: full evolution, transit-stub Internet (20 domains, 2 hosts per "
      "stub), domain-by-domain adoption");
  // Count the domains once from a throwaway topology so cells can be sized
  // up front (the generator is deterministic in the seed).
  const std::size_t total_epochs =
      net::generate_transit_stub(
          {.transit_domains = 4, .stubs_per_transit = 4, .seed = 8008})
          .domain_count();

  bench::row("%-8s %-10s %-12s %-12s %-14s %-12s %-12s", "epoch", "UA",
             "delivered", "mean-cost", "mean-stretch", "native-frac",
             "vn-links");
  const sim::ParallelSweep sweep_pool(args.threads);
  const auto results = sweep_pool.run(
      total_epochs, /*sweep_seed=*/8008,
      [total_epochs](std::size_t cell, sim::Rng&) {
        return run_epoch(cell + 1, total_epochs);
      });

  bench::JsonWriter json;
  bench::fill_standard_meta(json, "deployment_evolution", args.threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%s", results[i].text.c_str());
    char key[64];
    std::snprintf(key, sizeof key, "e8.epoch_%02zu.mean_stretch", i + 1);
    json.set(key, results[i].metrics.find_summary("e8.mean_stretch")->mean());
  }
  bench::row(
      "claim: universal access holds from the first adopter onwards; "
      "stretch decays toward 1.0 and native addressing reaches 100%% at "
      "full deployment.");
  if (!args.json_path.empty()) json.write(args.json_path);
}

}  // namespace
}  // namespace evo

int main(int argc, char** argv) {
  evo::evolution_run(evo::bench::parse_args(argc, argv));
  return 0;
}
