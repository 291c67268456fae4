// Distance-vector IGP (RIP-shaped) with the paper's anycast extension.
//
// Members advertise their anycast address at distance zero (§3.2);
// standard Bellman-Ford dynamics then give every router a next hop to its
// closest member. Plain distance-vector cannot enumerate members ("unlike
// link-state routing, an IPvN router cannot easily identify other IPvN
// routers"); the tagged mode implements the paper's alternative of listing
// anycast addresses on the router's own unicast advertisement, restoring
// discovery.
//
// Updates are triggered (debounced) only; on route loss a router issues a
// RIP-style full-table request to its neighbors so triggered-only
// operation still converges.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::igp {

/// Debounce between a table change and the triggered update it sends.
inline constexpr sim::Duration kTriggeredDelay = sim::Duration::millis(10);

/// Protocol constants. Whether advertisements carry member tags is a
/// constructor argument, because it is the IGP's kind (core::IgpKind).
struct DistanceVectorConfig {
  /// Metric treated as unreachable (count-to-infinity bound).
  net::Cost infinity = 256;
  /// Split horizon with poisoned reverse. Fault-injection backdoor: when
  /// false, routes are advertised back to the neighbor they were learned
  /// from at their real metric (no split horizon at all), which re-enables
  /// the classic count-to-infinity pathology on route loss. Exists so the
  /// fuzz harness can prove its convergence-budget oracle catches exactly
  /// that.
  bool split_horizon = true;
};

class DistanceVectorIgp final : public Igp {
 public:
  /// `tagged_advertisements` selects the paper's "explicitly listing its
  /// anycast address" variant: the router's own loopback advertisement
  /// carries its anycast memberships, making member discovery possible
  /// over distance-vector.
  DistanceVectorIgp(sim::Simulator& simulator, net::Network& network,
                    net::DomainId domain, bool tagged_advertisements = false,
                    DistanceVectorConfig config = {});

  net::DomainId domain() const override { return domain_; }
  void start() override;
  void add_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  void remove_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  bool supports_member_discovery() const override { return tagged_advertisements_; }
  std::vector<net::NodeId> discovered_members(net::NodeId viewpoint,
                                              net::Ipv4Addr anycast) const override;
  net::Cost distance(net::NodeId from, net::NodeId to) const override;
  std::uint64_t epoch() const override { return epoch_; }
  void on_link_change(net::LinkId link) override;
  std::uint64_t messages_sent() const override { return messages_sent_; }

 private:
  struct Route {
    net::Cost metric = 0;
    net::NodeId next_hop;        // invalid() => self-originated
    net::LinkId out_link;
    bool anycast = false;
    std::set<net::Ipv4Addr> tags;  // anycast memberships of the origin
    bool changed = false;          // pending inclusion in a triggered update
  };

  struct AdvertisedRoute {
    net::Prefix prefix;
    net::Cost metric;
    bool anycast;
    std::set<net::Ipv4Addr> tags;
  };

  struct RouterState {
    std::map<net::Prefix, Route> table;
    std::set<net::Ipv4Addr> memberships;
    bool update_pending = false;
  };

  RouterState& state(net::NodeId node);
  const RouterState& state(net::NodeId node) const;

  /// Install self-originated routes (loopback, subnet, memberships).
  void originate_local(net::NodeId router);

  /// Send changed routes to every up neighbor, honoring split horizon /
  /// poisoned reverse; clears changed flags.
  void send_update(net::NodeId router);

  /// Send a full-table update to one neighbor (response to a request or a
  /// link-up event).
  void send_full_to(net::NodeId router, net::NodeId neighbor, net::LinkId link);

  /// Process an update arriving at `router` from `from` via `link`.
  void receive_update(net::NodeId router, net::NodeId from, net::LinkId link,
                      std::vector<AdvertisedRoute> routes);

  /// RIP-style request: ask all neighbors for their full tables.
  void request_full_tables(net::NodeId router);

  void schedule_triggered(net::NodeId router);

  /// Re-sync `router`'s FIB from its DV table.
  void install_fib(net::NodeId router);

  /// Routes to advertise from `router` toward `neighbor`.
  std::vector<AdvertisedRoute> routes_for(const RouterState& st, net::NodeId neighbor,
                                          bool full) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  net::DomainId domain_;
  bool tagged_advertisements_;
  DistanceVectorConfig config_;
  std::unordered_map<std::uint32_t, RouterState> states_;
  std::uint64_t messages_sent_ = 0;
  /// Moved by every change to a unicast route's metric, next hop or link.
  std::uint64_t epoch_ = 0;
  bool started_ = false;
};

}  // namespace evo::igp
