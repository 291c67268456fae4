// Experiment E11: convergence dynamics under churn.
//
// The paper motivates anycast partly by its operational record — "the
// robust implementation of root DNS name servers" (RFC 3258) — and claims
// the network "self-manages" redirection. Here we inject deterministic
// churn through the fault-injection plane and measure, in simulated time,
// how long the control plane takes to reconverge and how the data plane
// fares while it does: {link-flap, router-crash, member-loss} × {LS, DV}
// × {Option 1 (global routes), Option 2 (default route)}, reported from
// the net.failure.* metrics.
//
// Each combo is one independent ParallelSweep cell (own Simulator, own
// MetricRegistry): `--threads N` spreads cells over a pool, and output is
// byte-identical for every N because rows are buffered per cell and
// emitted in cell order.
#include "bench_util.h"

#include "core/failure_plane.h"
#include "sim/metrics.h"
#include "sim/parallel.h"

namespace evo {
namespace {

using core::EvolvableInternet;
using core::FailurePlane;
using core::FailureSchedule;
using core::IgpKind;
using net::DomainId;
using net::LinkId;
using net::NodeId;

enum class Churn { kLinkFlap, kRouterCrash, kMemberLoss };

const char* to_string(Churn churn) {
  switch (churn) {
    case Churn::kLinkFlap: return "link-flap";
    case Churn::kRouterCrash: return "router-crash";
    case Churn::kMemberLoss: return "member-loss";
  }
  return "?";
}

struct Combo {
  Churn churn;
  IgpKind igp;
  anycast::InterDomainMode mode;
};

std::vector<Combo> combos() {
  std::vector<Combo> cells;
  for (const Churn churn :
       {Churn::kLinkFlap, Churn::kRouterCrash, Churn::kMemberLoss}) {
    for (const IgpKind igp : {IgpKind::kLinkState, IgpKind::kDistanceVector}) {
      for (const anycast::InterDomainMode mode :
           {anycast::InterDomainMode::kGlobalRoutes,
            anycast::InterDomainMode::kDefaultRoute}) {
        cells.push_back({churn, igp, mode});
      }
    }
  }
  return cells;
}

/// The cheapest physical link between two adjacent routers.
LinkId link_between(const net::Topology& topo, NodeId a, NodeId b) {
  for (const LinkId link_id : topo.router(a).links) {
    if (topo.link(link_id).other_end(a) == b) return link_id;
  }
  return LinkId::invalid();
}

sim::CellResult run_combo(const Combo& combo) {
  core::Options options;
  options.igp = combo.igp;
  options.vnbone.anycast_mode = combo.mode;
  auto net = bench::make_internet({.transit_domains = 3,
                                   .stubs_per_transit = 2,
                                   .seed = 11011},
                                  /*hosts_per_stub=*/0, options);
  // Members: the first two transit domains, so both intra-domain and
  // inter-domain failover paths exist.
  net->deploy_domain(DomainId{0});
  net->deploy_domain(DomainId{1});
  net->converge();
  const auto& group = net->anycast().group(net->vnbone().anycast_group());

  // Probe from every stub domain toward the anycast address.
  sim::CellResult result;
  FailurePlane plane(*net, result.metrics);
  std::vector<NodeId> probes;
  for (const auto& d : net->topology().domains()) {
    if (d.stub) probes.push_back(d.routers.front());
  }
  for (const NodeId p : probes) plane.add_probe(p, group.address);
  const auto baseline = net->network().trace(probes.front(), group.address);
  EVO_BENCH_REQUIRE(baseline.delivered());

  // Victims are read off probe[0]'s converged path, so every combo
  // hits infrastructure that actually carries measured traffic.
  const sim::TimePoint t0 = net->simulator().now();
  auto at = [&](std::int64_t ms) { return t0 + sim::Duration::millis(ms); };
  FailureSchedule schedule;
  switch (combo.churn) {
    case Churn::kLinkFlap: {
      EVO_BENCH_REQUIRE(baseline.hops.size() >= 2);
      const LinkId victim = link_between(
          net->topology(), baseline.hops[baseline.hops.size() - 2],
          baseline.hops.back());
      EVO_BENCH_REQUIRE(victim.valid());
      schedule.link_flap(at(100), sim::Duration::millis(400), victim)
          .link_flap(at(2000), sim::Duration::millis(400), victim)
          .link_flap(at(4000), sim::Duration::millis(400), victim);
      break;
    }
    case Churn::kRouterCrash: {
      const NodeId victim = baseline.delivered_at;
      schedule.node_crash(at(100), sim::Duration::millis(800), victim)
          .node_crash(at(3000), sim::Duration::millis(800), victim);
      break;
    }
    case Churn::kMemberLoss: {
      const NodeId victim = baseline.delivered_at;
      schedule.member_loss(at(100), victim)
          .member_join(at(2000), victim)
          .member_loss(at(4000), victim)
          .member_join(at(6000), victim);
      break;
    }
  }
  plane.arm(schedule);
  net->converge();
  EVO_BENCH_REQUIRE(plane.events_applied() == schedule.size());

  const auto& metrics = result.metrics;
  const auto* reconverge = metrics.find_summary("net.failure.reconverge_ms");
  const auto* during = metrics.find_summary("net.failure.during.delivery_rate");
  const auto* after = metrics.find_summary("net.failure.after.delivery_rate");
  EVO_BENCH_REQUIRE(reconverge != nullptr && during != nullptr &&
                    after != nullptr);
  bench::cell_row(
      result.text,
      "%-13s %-23s %-15s %3lld  %6.1fms %6.1fms  %6.1f%% %6.1f%%  %5lld %5lld",
      to_string(combo.churn), to_string(combo.igp), to_string(combo.mode),
      static_cast<long long>(metrics.counter("net.failure.events")),
      reconverge->percentile(50.0), reconverge->max(), during->mean(),
      after->mean(),
      static_cast<long long>(metrics.counter("net.failure.blackholes")),
      static_cast<long long>(metrics.counter("net.failure.loops")));
  return result;
}

void sweep(const bench::Args& args) {
  bench::banner(
      "E11: convergence dynamics — per-event time-to-reconverge and "
      "delivery rate during/after churn (net.failure.* metrics)");
  bench::row("%-13s %-23s %-15s %3s  %8s %8s  %7s %7s  %5s %5s", "failure",
             "igp", "anycast option", "ev", "rc-p50", "rc-max", "during",
             "after", "bhole", "loop");

  const auto cells = combos();
  // Cells are fully seeded by their combo (fixed topology seed), so the
  // sweep seed only feeds the harness's per-cell rng, which E11 ignores.
  const sim::ParallelSweep sweep_pool(args.threads);
  const auto results = sweep_pool.run(
      cells.size(), /*sweep_seed=*/11011,
      [&cells](std::size_t cell, sim::Rng&) { return run_combo(cells[cell]); });

  bench::JsonWriter json;
  bench::fill_standard_meta(json, "convergence_dynamics", args.threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%s", results[i].text.c_str());
    const auto& m = results[i].metrics;
    const std::string key = std::string("e11.") + to_string(cells[i].churn) +
                            "." + to_string(cells[i].igp) + "." +
                            to_string(cells[i].mode);
    json.set(key + ".reconverge_p50_ms",
             m.find_summary("net.failure.reconverge_ms")->percentile(50.0));
    json.set(key + ".reconverge_p99_ms",
             m.find_summary("net.failure.reconverge_ms")->percentile(99.0));
    json.set(key + ".after_delivery_rate",
             m.find_summary("net.failure.after.delivery_rate")->mean());
    json.set(key + ".blackholes",
             static_cast<double>(m.counter("net.failure.blackholes")));
  }
  bench::row(
      "claim: redirection self-heals in protocol-convergence time with zero "
      "endhost involvement (RFC3258's operational story). After each event "
      "delivery recovers to whatever physics allows — 100%% once the "
      "link/router/member returns; during a down window, probes whose only "
      "path crossed the victim stay dark (blackholes), but never loop. "
      "Distance-vector pays its poison/request round trips on crashes "
      "(rc-max ~17x link-state): on a crash IGP, BGP sessions, and the "
      "vN-Bone all must react.");
  if (!args.json_path.empty()) json.write(args.json_path);
}

}  // namespace
}  // namespace evo

int main(int argc, char** argv) {
  evo::sweep(evo::bench::parse_args(argc, argv));
  return 0;
}
