// Anycast delivery measurement: probes and the closest-member oracle.
//
// A probe traces an actual packet (FIB walk) to the group address and
// compares the delivery against the exact closest member computed by
// multi-source Dijkstra on the physical graph — giving the stretch metric
// used by experiments E1/E2/E6.
#pragma once

#include <span>
#include <vector>

#include "anycast/anycast.h"
#include "net/graph.h"
#include "net/network.h"

namespace evo::anycast {

struct Probe {
  net::Network::TraceResult trace;
  /// The member that received the packet; invalid() when undelivered.
  net::NodeId member;
  /// Exact distance to the closest member (oracle); kInfiniteCost when the
  /// group has no reachable member.
  net::Cost optimal_cost = net::kInfiniteCost;
  net::NodeId optimal_member;
  /// trace cost / optimal cost; 1.0 when optimal; only meaningful when
  /// delivered. For optimal_cost == 0 (source is a member) stretch is 1.
  double stretch = 0.0;

  bool delivered() const { return trace.delivered(); }
};

/// The oracle for a group: multi-source shortest paths from all members
/// over the physical topology. Reusable across many probes.
class ClosestMemberOracle {
 public:
  ClosestMemberOracle(const net::Topology& topology, const Group& group);

  net::Cost distance_from(net::NodeId source) const {
    return paths_.distance_to(source);
  }
  net::NodeId member_for(net::NodeId source) const {
    return paths_.source_of[source.value()];
  }

 private:
  net::ShortestPaths paths_;
};

/// Trace a packet from `source` to the group address and grade it against
/// the oracle.
Probe probe(const net::Network& network, const Group& group, net::NodeId source,
            const ClosestMemberOracle& oracle);

/// Convenience: builds a fresh oracle (prefer the explicit-oracle overload
/// in loops).
Probe probe(const net::Network& network, const Group& group, net::NodeId source);

/// Probe the group from every source in one batch (Network::trace_batch
/// underneath, so a source probed again while no forwarding input moves
/// is served from the leg cache). results[i] corresponds to sources[i] and
/// is identical to what the per-source probe() would return.
std::vector<Probe> probe_batch(const net::Network& network, const Group& group,
                               std::span<const net::NodeId> sources,
                               const ClosestMemberOracle& oracle);

/// Catchment analysis: which member serves each router in the network.
struct Catchment {
  /// member[node] = serving member (invalid if undelivered).
  std::vector<net::NodeId> member;
  /// Fraction of routers whose packet reached the oracle-closest member.
  double optimal_fraction = 0.0;
  /// Fraction of routers whose packets were delivered at all.
  double delivered_fraction = 0.0;
  /// Mean stretch across delivered probes.
  double mean_stretch = 0.0;
};

Catchment compute_catchment(const net::Network& network, const Group& group);

}  // namespace evo::anycast
