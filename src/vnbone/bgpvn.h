// BGPvN — the vN-Bone's inter-domain routing protocol, run for real.
//
// "In the discussion that follows, we assume the existence of separate
// intra and inter-domain IPvN routing protocols ... we use the notation
// BGPvN to denote the IPvN inter-domain routing protocol even though
// BGPvN need not strictly resemble today's BGP" (§3.3.2).
//
// This implementation is an event-driven path-vector protocol at domain
// granularity whose sessions are the vN-Bone's inter-domain tunnels
// (message latency = the tunnel's measured underlay latency). It carries
// two route families:
//   * native routes — one per deployed domain's IPvN prefix;
//   * proxy routes — per legacy IPv(N-1) domain, the advertised
//     BGPv(N-1) distance of each deployed domain (advertising-by-proxy,
//     Figure 4), so vN-RIB state can be counted rather than modeled.
//
// VnBone::route() remains the converged-state oracle; BgpVn exists to
// measure what the oracle abstracts: message counts, convergence time,
// and per-domain RIB sizes. A cross-check test asserts both agree.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "vnbone/vnbone.h"

namespace evo::vnbone {

/// Debounce between a vN-RIB change and the UPDATEs it triggers.
inline constexpr sim::Duration kVnUpdateDelay = sim::Duration::millis(5);

/// One vN-RIB entry at a domain, for either a native or a proxy target.
struct VnRoute {
  net::DomainId target;
  /// Domain-level path over the vN-Bone, nearest first, origin last.
  std::vector<net::DomainId> vn_path;
  /// For proxy routes: the origin's advertised BGPv(N-1) AS distance to
  /// the legacy target. 0 for native routes.
  net::Cost legacy_distance = 0;
  bool native = true;
};

class BgpVn {
 public:
  /// References must outlive this object. `bone` provides the session
  /// graph (its inter-domain virtual links) and the legacy-distance
  /// inputs; `network` provides tunnel latencies.
  BgpVn(sim::Simulator& simulator, const net::Network& network, const VnBone& bone);

  /// Rebuild sessions from the bone's current inter-domain tunnels,
  /// originate native and proxy routes, and start exchanging UPDATEs.
  /// Run the simulator to converge; safe to call again after deployment
  /// changes (state is rebuilt from scratch).
  void restart();

  /// Best vN route at `domain` for a native IPvN target; nullptr if
  /// unknown (unreachable or not yet converged).
  const VnRoute* best_native(net::DomainId domain, net::DomainId target) const;

  /// Best proxy route at `domain` toward legacy `target`: minimizes the
  /// advertised legacy distance, then the vN path length.
  const VnRoute* best_proxy(net::DomainId domain, net::DomainId target) const;

  /// Total vN-RIB entries at `domain` (native + proxy best routes).
  std::size_t rib_size(net::DomainId domain) const;

  std::uint64_t messages_sent() const { return messages_sent_; }

  /// Simulated time from the last restart() to quiescence; valid after
  /// the simulator has drained.
  sim::Duration convergence_time() const {
    return last_converged_ - restarted_at_;
  }

 private:
  struct Session {
    net::DomainId peer;
    sim::Duration latency;
  };

  /// Key: (target, native?) — proxy and native families are independent.
  using RouteKey = std::pair<net::DomainId, bool>;

  struct SpeakerState {
    std::vector<Session> sessions;
    /// Best known offer per (route key, advertising neighbor).
    std::map<std::pair<RouteKey, net::DomainId>, VnRoute> rib_in;
    /// Winning route per key.
    std::map<RouteKey, VnRoute> rib;
    std::map<RouteKey, VnRoute> originated;
    std::vector<RouteKey> dirty;
    bool send_pending = false;
  };

  static bool preferred(const VnRoute& a, const VnRoute& b);
  void decide(net::DomainId domain, RouteKey key);
  void schedule_send(net::DomainId domain);
  void flush(net::DomainId domain);
  void receive(net::DomainId local, net::DomainId from, VnRoute route);

  sim::Simulator& simulator_;
  const net::Network& network_;
  const VnBone& bone_;
  std::map<net::DomainId, SpeakerState> speakers_;
  std::uint64_t messages_sent_ = 0;
  sim::TimePoint restarted_at_;
  sim::TimePoint last_converged_;
};

}  // namespace evo::vnbone
