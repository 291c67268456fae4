#include "core/trace.h"

namespace evo::core {

using net::Cost;
using net::HostId;
using net::NodeId;

const char* to_string(Segment::Kind kind) {
  switch (kind) {
    case Segment::Kind::kAnycastIngress: return "anycast-ingress";
    case Segment::Kind::kTunnel: return "tunnel";
    case Segment::Kind::kLegacyEgress: return "legacy-egress";
  }
  return "?";
}

const char* to_string(EndToEndTrace::Failure failure) {
  switch (failure) {
    case EndToEndTrace::Failure::kNone: return "none";
    case EndToEndTrace::Failure::kNoDeployment: return "no-deployment";
    case EndToEndTrace::Failure::kIngressFailed: return "ingress-failed";
    case EndToEndTrace::Failure::kVnRoutingFailed: return "vn-routing-failed";
    case EndToEndTrace::Failure::kTunnelFailed: return "tunnel-failed";
    case EndToEndTrace::Failure::kEgressFailed: return "egress-failed";
  }
  return "?";
}

Cost EndToEndTrace::total_cost() const {
  Cost total = 0;
  for (const auto& s : segments) total += s.trace.cost;
  return total;
}

std::size_t EndToEndTrace::total_hops() const {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.trace.hop_count();
  return total;
}

Cost EndToEndTrace::legacy_tail_cost() const {
  Cost total = 0;
  for (const auto& s : segments) {
    if (s.kind == Segment::Kind::kLegacyEgress) total += s.trace.cost;
  }
  return total;
}

std::string EndToEndTrace::describe() const {
  std::string out = delivered ? "delivered" : std::string("failed: ") +
                                                  to_string(failure);
  out += " (cost " + std::to_string(total_cost()) + ", hops " +
         std::to_string(total_hops()) + ", vn-hops " +
         std::to_string(vn_route.vn_hop_count()) + ")";
  return out;
}

EndToEndTrace send_ipvn(const EvolvableInternet& internet, HostId src, HostId dst,
                        std::optional<vnbone::EgressMode> mode) {
  return send_ipvn_generation(internet, 0, src, dst, mode);
}

std::vector<EndToEndTrace> send_ipvn_batch(const EvolvableInternet& internet,
                                           std::span<const HostPair> pairs,
                                           std::optional<vnbone::EgressMode> mode) {
  // Every leg of every send goes through one leg-cache batch: nothing
  // here writes a forwarding input, so the stamp taken here holds to the
  // last pair.
  const net::Network::Batch legs = internet.network().begin_batch();
  std::vector<EndToEndTrace> results;
  results.reserve(pairs.size());
  for (const HostPair& pair : pairs) {
    results.push_back(send_ipvn_generation(internet, 0, pair.src, pair.dst, mode, &legs));
  }
  return results;
}

std::size_t LegPlan::size() const {
  return route.vn_hop_count() + (route.exits_to_legacy ? 1 : 0);
}

Leg LegPlan::operator[](std::size_t index) const {
  if (index < route.vn_hop_count()) {
    // A vN-Bone virtual hop: a v(N-1) tunnel to the neighbor's loopback.
    const NodeId next = route.vn_hops[index + 1];
    return {Segment::Kind::kTunnel, route.vn_hops[index],
            topology.router(next).loopback, next,
            EndToEndTrace::Failure::kTunnelFailed};
  }
  // The native IPv(N-1) tail from the egress to the legacy destination.
  return {Segment::Kind::kLegacyEgress, route.egress, legacy_dst, dst_access,
          EndToEndTrace::Failure::kEgressFailed};
}

EndToEndTrace::Failure LegPlan::exit_failure() const {
  // A native IPvN exit must already be the destination's access router.
  return route.exits_to_legacy || route.egress == dst_access
             ? EndToEndTrace::Failure::kNone
             : EndToEndTrace::Failure::kEgressFailed;
}

EndToEndTrace send_ipvn_generation(const EvolvableInternet& internet,
                                   std::size_t generation, HostId src, HostId dst,
                                   std::optional<vnbone::EgressMode> mode,
                                   const net::Network::Batch* legs) {
  const auto& vnbone = internet.generation(generation);
  if (!vnbone.anycast_group().valid()) {
    EndToEndTrace result;
    result.failure = EndToEndTrace::Failure::kNoDeployment;
    return result;
  }
  // The network delivers the anycast packet to the closest IPvN router.
  return send_via_ingress(
      internet, src, dst, vnbone.anycast_address(),
      [&vnbone](NodeId at) { return vnbone.deployed(at); }, mode, generation, legs);
}

void complete_from_ingress(const EvolvableInternet& internet,
                           const net::IpvNHeader& inner, HostId dst,
                           std::optional<vnbone::EgressMode> mode,
                           Segment ingress_leg, EndToEndTrace& result,
                           std::size_t generation, const net::Network::Batch* legs) {
  const auto& network = internet.network();
  const auto& topo = network.topology();

  // The ingress decapsulates and routes over the vN-Bone.
  result.vn_route =
      internet.generation(generation).route(result.ingress, inner.dst, mode);
  if (!result.vn_route.ok) {
    result.failure = EndToEndTrace::Failure::kVnRoutingFailed;
    result.segments.push_back(std::move(ingress_leg));
    return;
  }
  result.egress = result.vn_route.egress;
  const LegPlan plan{topo, result.vn_route, inner.legacy_dst,
                     topo.host(dst).access_router};
  result.segments.reserve(1 + plan.size());
  result.segments.push_back(std::move(ingress_leg));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Leg leg = plan[i];
    Segment& segment = result.segments.emplace_back();
    segment.kind = leg.kind;
    segment.trace = trace_leg(network, legs, leg.from, leg.outer_dst);
    if (!segment.trace.delivered() || segment.trace.delivered_at != leg.lands_on) {
      result.failure = leg.on_miss;
      return;
    }
  }
  result.failure = plan.exit_failure();
  result.delivered = result.failure == EndToEndTrace::Failure::kNone;
}

NodeId register_endhost_route(EvolvableInternet& internet, HostId host) {
  auto& vnbone = internet.vnbone();
  if (!vnbone.anycast_group().valid()) return NodeId::invalid();
  const auto addr = internet.hosts().ipvn_address(host);
  if (!addr.is_self_address()) return NodeId::invalid();
  const auto& topo = internet.topology();
  const auto trace = internet.network().trace(topo.host(host).access_router,
                                              vnbone.anycast_address());
  if (!trace.delivered() || !vnbone.deployed(trace.delivered_at)) {
    return NodeId::invalid();
  }
  vnbone.register_endhost_route(addr, trace.delivered_at);
  return trace.delivered_at;
}

Cost oracle_host_distance(const EvolvableInternet& internet, HostId src, HostId dst) {
  const auto& topo = internet.topology();
  const net::Graph graph = topo.physical_graph();
  const auto paths = net::dijkstra(graph, topo.host(src).access_router);
  return paths.distance_to(topo.host(dst).access_router);
}

}  // namespace evo::core
