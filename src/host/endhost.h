// The endhost IPvN stack (paper §3.3.2 addressing + §3.1 encapsulation).
//
// A host's IPvN address is *native* when its access provider has deployed
// IPvN (allocated from the provider, embedding domain/access-router/host),
// and a temporary RFC3056-style *self-address* derived from its IPv(N-1)
// address otherwise ("have the endhost assign itself a unique IPvN
// address ... deriving the remaining IPvN address bits from the endhost's
// unique IPv(N-1) address"). Self-addresses are temporary: the same host
// re-labels to a native address once its provider deploys — the stack
// recomputes addresses on every query, so relabeling is automatic.
//
// Sending is uniform and requires zero host configuration: the IPvN
// datagram is encapsulated in an IPv(N-1) packet addressed to the
// deployment's anycast address; the network delivers it to the closest
// IPvN router (universal access).
#pragma once

#include <optional>

#include "net/network.h"
#include "net/packet.h"
#include "vnbone/vnbone.h"

namespace evo::host {

class HostStack {
 public:
  /// References must outlive this object.
  HostStack(const net::Network& network, const vnbone::VnBone& vnbone);

  /// The host's current IPvN address (native when its provider deployed,
  /// self-address otherwise).
  net::IpvNAddr ipvn_address(net::HostId host) const;

  /// True when `host` currently holds a provider-allocated native address.
  bool has_native_address(net::HostId host) const;

  /// Reverse lookup: the host owning `addr` under the current deployment,
  /// if any. Handles both native addresses and self-addresses.
  std::optional<net::HostId> host_by_ipvn(net::IpvNAddr addr) const;

  /// Build the canonical paper datagram from `src` to `dst`: IPvN inner
  /// header (with the legacy-destination option set) encapsulated toward
  /// the deployment's anycast address.
  net::Packet make_datagram(net::HostId src, net::HostId dst,
                            std::uint64_t payload_id = 0) const;

  /// Build a datagram to an explicit IPvN destination (for hosts
  /// addressing services rather than peer hosts).
  net::Packet make_datagram_to(net::HostId src, net::IpvNAddr dst,
                               net::Ipv4Addr legacy_dst,
                               std::uint64_t payload_id = 0) const;

  /// make_datagram's inner IPvN header alone: what the ingress reads once
  /// it decapsulates.
  net::IpvNHeader make_header(net::HostId src, net::HostId dst) const;

 private:
  net::IpvNHeader header_to(net::HostId src, net::IpvNAddr dst,
                            net::Ipv4Addr legacy_dst) const;

  const net::Network& network_;
  const vnbone::VnBone& vnbone_;
};

}  // namespace evo::host
