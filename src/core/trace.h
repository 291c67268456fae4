// End-to-end IPvN delivery tracing across all three legs of the paper's
// data path: anycast ingress (host -> closest IPvN router), vN-Bone
// transit (tunneled virtual hops), and egress (native IPv(N-1) tail to a
// legacy destination, or native IPvN delivery at the access router).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/evolvable_internet.h"

namespace evo::core {

struct Segment {
  enum class Kind : std::uint8_t {
    kAnycastIngress,  // encapsulated packet riding unicast to the anycast addr
    kTunnel,          // one vN-Bone virtual hop (v4 tunnel between routers)
    kLegacyEgress,    // native IPv(N-1) tail from the egress to the dest
  };
  Kind kind = Kind::kAnycastIngress;
  net::Network::TraceResult trace;
};

const char* to_string(Segment::Kind kind);

struct EndToEndTrace {
  enum class Failure : std::uint8_t {
    kNone,
    kNoDeployment,     // no IPvN router exists anywhere
    kIngressFailed,    // anycast packet was not delivered to any member
    kVnRoutingFailed,  // no vN-Bone route toward the destination
    kTunnelFailed,     // a virtual hop's underlay path failed
    kEgressFailed,     // the native tail did not reach the destination
  };

  bool delivered = false;
  Failure failure = Failure::kNone;
  net::NodeId ingress;
  net::NodeId egress;
  vnbone::VnBone::VnRoute vn_route;
  std::vector<Segment> segments;

  /// Total underlay cost across all segments.
  net::Cost total_cost() const;
  /// Total underlay (physical) hops across all segments.
  std::size_t total_hops() const;
  /// Cost of the legacy (IPv(N-1)) tail only — the part of the path the
  /// IPvN deployment does not control (Figure 3's metric).
  net::Cost legacy_tail_cost() const;

  std::string describe() const;
};

const char* to_string(EndToEndTrace::Failure failure);

/// One leg of a datagram's path after its ingress: the datagram is
/// encapsulated at `from` toward `outer_dst` and must land on `lands_on`;
/// anything else fails the send with `on_miss`.
struct Leg {
  Segment::Kind kind = Segment::Kind::kTunnel;
  net::NodeId from;
  net::Ipv4Addr outer_dst;
  net::NodeId lands_on;
  EndToEndTrace::Failure on_miss = EndToEndTrace::Failure::kTunnelFailed;
};

/// The data path from the ingress onward, read off a vN-Bone route: one
/// IPv(N-1) tunnel per virtual hop, then a native tail to the destination
/// when the route exits to legacy. Legs are computed on demand, so walking
/// the plan allocates nothing. The synchronous tracer walks it with
/// Network::trace, IpvnTransport with DeliveryEngine::inject.
struct LegPlan {
  const net::Topology& topology;
  const vnbone::VnBone::VnRoute& route;
  net::Ipv4Addr legacy_dst;  // the destination's IPv(N-1) address
  net::NodeId dst_access;    // the destination's access router

  std::size_t size() const;
  Leg operator[](std::size_t index) const;
  /// The verdict once every leg has landed: kNone, or kEgressFailed when
  /// the route delivers natively at a router other than `dst_access`.
  EndToEndTrace::Failure exit_failure() const;
};

/// Send one IPvN datagram from `src` to `dst` through the full paper
/// data path. `mode` overrides the configured egress-selection mode.
EndToEndTrace send_ipvn(const EvolvableInternet& internet, net::HostId src,
                        net::HostId dst,
                        std::optional<vnbone::EgressMode> mode = std::nullopt);

/// One src->dst probe of a batched send.
struct HostPair {
  net::HostId src;
  net::HostId dst;
};

/// Send one IPvN datagram per pair through the full data path. The batch
/// counterpart of send_ipvn: its ingress, tunnel and egress legs go through
/// one Network::Batch, so a leg that repeats while no forwarding input
/// moves (the same access router toward the anycast address, the same
/// virtual link, the same egress toward the same host) is walked once.
/// results[i] corresponds to pairs[i] and is identical to what
/// send_ipvn(pairs[i]...) would return.
std::vector<EndToEndTrace> send_ipvn_batch(const EvolvableInternet& internet,
                                           std::span<const HostPair> pairs,
                                           std::optional<vnbone::EgressMode> mode =
                                               std::nullopt);

/// Like send_ipvn but through a non-primary IP generation (its own
/// vN-Bone, anycast group, and host addressing). `legs`, when given, is
/// the batch whose leg cache the underlay legs go through.
EndToEndTrace send_ipvn_generation(const EvolvableInternet& internet,
                                   std::size_t generation, net::HostId src,
                                   net::HostId dst,
                                   std::optional<vnbone::EgressMode> mode =
                                       std::nullopt,
                                   const net::Network::Batch* legs = nullptr);

/// One IPv(N-1) leg of a send: Network::trace, or through `legs`' cache
/// when a batched send passes one.
inline net::Network::TraceResult trace_leg(const net::Network& network,
                                           const net::Network::Batch* legs,
                                           net::NodeId from, net::Ipv4Addr dst) {
  return legs != nullptr ? legs->trace(from, dst) : network.trace(from, dst);
}

/// Complete a delivery whose ingress leg `ingress_leg` landed on
/// `result.ingress` (a deployed router): route over the generation's
/// vN-Bone from there and walk the LegPlan. `result.segments` (empty on
/// entry) gets the ingress leg and then one segment per leg walked, sized
/// once the route is known; delivered/failure are set.
void complete_from_ingress(const EvolvableInternet& internet,
                           const net::IpvNHeader& inner, net::HostId dst,
                           std::optional<vnbone::EgressMode> mode,
                           Segment ingress_leg, EndToEndTrace& result,
                           std::size_t generation = 0,
                           const net::Network::Batch* legs = nullptr);

/// The ingress leg every redirection mechanism shares: `src` encapsulates
/// a datagram for `dst` toward `ingress_address` (an anycast address, or a
/// broker-supplied unicast one); it enters the vN-Bone where it lands if
/// `accept(at)` holds and fails with kIngressFailed otherwise.
template <typename Accept>
EndToEndTrace send_via_ingress(const EvolvableInternet& internet, net::HostId src,
                               net::HostId dst, net::Ipv4Addr ingress_address,
                               Accept accept,
                               std::optional<vnbone::EgressMode> mode,
                               std::size_t generation = 0,
                               const net::Network::Batch* legs = nullptr) {
  EndToEndTrace result;
  const auto& network = internet.network();
  Segment leg{Segment::Kind::kAnycastIngress,
              trace_leg(network, legs, network.topology().host(src).access_router,
                        ingress_address)};
  if (!leg.trace.delivered() || !accept(leg.trace.delivered_at)) {
    result.failure = EndToEndTrace::Failure::kIngressFailed;
    result.segments.push_back(std::move(leg));
    return result;
  }
  result.ingress = leg.trace.delivered_at;
  complete_from_ingress(internet,
                        internet.generation_hosts(generation).make_header(src, dst),
                        dst, mode, std::move(leg), result, generation, legs);
  return result;
}

/// §3.3.2 endhost route advertisement: `host` uses anycast to find a
/// nearby IPvN router and registers its temporary (self) address there
/// for BGPvN advertisement. Returns the advertiser, or invalid() when the
/// host has a native address (no registration needed) or no IPvN router
/// is reachable. "An endhost would periodically repeat this process" —
/// callers re-invoke after deployment or topology changes.
net::NodeId register_endhost_route(EvolvableInternet& internet, net::HostId host);

/// Oracle: cheapest physical cost between the two hosts' access routers
/// (for stretch metrics; ignores policy).
net::Cost oracle_host_distance(const EvolvableInternet& internet, net::HostId src,
                               net::HostId dst);

}  // namespace evo::core
