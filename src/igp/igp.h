// Intra-domain routing protocol interface.
//
// One Igp instance runs per ISP domain. Both implementations (link-state,
// distance-vector) support the paper's anycast extensions (§3.2):
//   - link-state: members "advertise a high-cost 'link' to the
//     corresponding anycast address";
//   - distance-vector: members "advertise a distance of zero to [their]
//     anycast address";
//   - the tagged-unicast-advertisement variant ("explicitly listing its
//     anycast address" on the router's own route), which makes member
//     discovery trivial and enables simple vN-Bone construction (§3.3.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/address.h"
#include "net/graph.h"
#include "net/ids.h"
#include "obs/recorder.h"

namespace evo::igp {

class Igp {
 public:
  virtual ~Igp() = default;

  /// Which domain this instance routes for.
  virtual net::DomainId domain() const = 0;

  /// Begin protocol operation: schedule initial advertisements. Routes
  /// appear in the routers' FIBs as the simulation runs.
  virtual void start() = 0;

  /// Anycast membership: `router` (must be in this domain) starts/stops
  /// terminating `anycast`. Takes effect through normal protocol dynamics.
  virtual void add_anycast_member(net::NodeId router, net::Ipv4Addr anycast) = 0;
  virtual void remove_anycast_member(net::NodeId router, net::Ipv4Addr anycast) = 0;

  /// Whether this protocol variant lets routers enumerate the members of
  /// an anycast group (true for link-state and for tagged distance-vector;
  /// false for plain distance-vector — exactly the paper's distinction).
  virtual bool supports_member_discovery() const = 0;

  /// Members of `anycast` as known at `viewpoint` (empty when discovery is
  /// unsupported). Sorted by NodeId for determinism.
  virtual std::vector<net::NodeId> discovered_members(net::NodeId viewpoint,
                                                      net::Ipv4Addr anycast) const = 0;

  /// Converged IGP distance between two routers of this domain;
  /// kInfiniteCost when unknown/unreachable. Used by BGP hot-potato
  /// egress selection and by vN-Bone neighbor selection. The next hop and
  /// link toward `to` are `from`'s kIgp FIB entry for `to`'s loopback.
  virtual net::Cost distance(net::NodeId from, net::NodeId to) const = 0;

  /// Routing epoch: moves whenever distance() could answer differently for
  /// some pair of this domain's routers, or a router's next hop toward
  /// another router changes; constant otherwise (anycast routes, member
  /// tags and flooding do not move it). State derived from distance() is
  /// valid for as long as this value is unchanged.
  virtual std::uint64_t epoch() const = 0;

  /// Notify the protocol that a link's up/down state changed.
  virtual void on_link_change(net::LinkId link) = 0;

  /// Total protocol messages sent so far (for overhead experiments).
  virtual std::uint64_t messages_sent() const = 0;

  /// Telemetry sink for protocol point events (SPF runs, update waves).
  /// Null by default; implementations record nothing when unset.
  virtual void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 protected:
  obs::Recorder* recorder_ = nullptr;
};

/// Every domain's one IGP, indexed by DomainId value. BGP, the anycast
/// service and each vN-Bone read their domains' IGPs through it.
using IgpTable = std::span<const std::unique_ptr<Igp>>;

}  // namespace evo::igp
