#include "core/transport.h"

namespace evo::core {

using net::HostId;
using net::NodeId;

IpvnTransport::IpvnTransport(EvolvableInternet& internet)
    : internet_(internet), engine_(internet.simulator(), internet.network()) {}

void IpvnTransport::listen(HostId host, ReceiveFn fn) {
  listeners_[host.value()] = std::move(fn);
}

void IpvnTransport::fail(EndToEndTrace::Failure failure, const Flight& flight) {
  ++failed_;
  if (flight.on_failure) flight.on_failure(failure, flight.payload_id);
}

void IpvnTransport::finish(const Flight& flight) {
  ++received_;
  const auto it = listeners_.find(flight.dst.value());
  if (it != listeners_.end() && it->second) {
    it->second(flight.src, flight.dst, flight.payload_id,
               internet_.simulator().now() - flight.sent_at);
  }
}

void IpvnTransport::send(HostId src, HostId dst, std::uint64_t payload_id,
                         FailureFn on_failure) {
  ++sent_;
  auto flight = std::make_shared<Flight>(Flight{src, dst, payload_id, {},
                                                internet_.simulator().now(),
                                                std::move(on_failure), {}});
  if (!internet_.vnbone().anycast_group().valid()) {
    fail(EndToEndTrace::Failure::kNoDeployment, *flight);
    return;
  }
  net::Packet packet = internet_.hosts().make_datagram(src, dst, payload_id);
  flight->inner = packet.layers().front().vn;

  // The ingress leg: the encapsulated datagram rides unicast to the anycast
  // address and must reach an IPvN router.
  engine_.inject(
      internet_.topology().host(src).access_router, std::move(packet),
      [this, flight](NodeId at, const net::Packet&, sim::Duration) {
        if (!internet_.vnbone().deployed(at)) {
          fail(EndToEndTrace::Failure::kIngressFailed, *flight);
          return;
        }
        // The ingress decapsulates and consults its vN routing state.
        flight->route = internet_.vnbone().route(at, flight->inner.dst);
        if (!flight->route.ok) {
          fail(EndToEndTrace::Failure::kVnRoutingFailed, *flight);
          return;
        }
        ride(flight, 0);
      },
      [this, flight](net::Network::TraceResult::Outcome, NodeId, const net::Packet&) {
        fail(EndToEndTrace::Failure::kIngressFailed, *flight);
      });
}

void IpvnTransport::ride(std::shared_ptr<Flight> flight, std::size_t index) {
  const auto& topo = internet_.topology();
  const LegPlan plan{topo, flight->route, flight->inner.legacy_dst,
                     topo.host(flight->dst).access_router};
  if (index == plan.size()) {
    const auto failure = plan.exit_failure();
    if (failure == EndToEndTrace::Failure::kNone) {
      finish(*flight);
    } else {
      fail(failure, *flight);
    }
    return;
  }
  const Leg leg = plan[index];
  net::Packet packet =
      net::make_encapsulated(flight->inner, topo.router(leg.from).loopback,
                             leg.outer_dst);
  packet.payload_id = flight->payload_id;
  engine_.inject(
      leg.from, std::move(packet),
      [this, flight, index, leg](NodeId at, const net::Packet&, sim::Duration) {
        if (at == leg.lands_on) {
          ride(flight, index + 1);
        } else {
          fail(leg.on_miss, *flight);
        }
      },
      [this, flight, leg](net::Network::TraceResult::Outcome, NodeId,
                          const net::Packet&) {
        fail(leg.on_miss, *flight);
      });
}

}  // namespace evo::core
