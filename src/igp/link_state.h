// Link-state IGP (OSPF-shaped) with the paper's anycast extension.
//
// Every router originates an LSA describing its intra-domain adjacencies,
// its own addresses, and — when it is an anycast member — a high-cost stub
// "link" to each anycast address it terminates. LSAs flood hop-by-hop with
// link latency; each router runs SPF over its link-state database
// (debounced) and installs routes into its FIB.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::igp {

/// Cost of the virtual stub link to an anycast address. "This high cost is
/// necessary to prevent routers from attempting to route through an
/// anycast address" (§3.2). It is added symmetrically to every member, so
/// it never changes which member is closest.
inline constexpr net::Cost kAnycastStubCost = 1000;
/// Debounce between an LSDB change and the SPF run it triggers.
inline constexpr sim::Duration kSpfDelay = sim::Duration::millis(10);

class LinkStateIgp final : public Igp {
 public:
  /// `network` and `simulator` must outlive this object.
  LinkStateIgp(sim::Simulator& simulator, net::Network& network,
               net::DomainId domain);

  net::DomainId domain() const override { return domain_; }
  void start() override;
  void add_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  void remove_anycast_member(net::NodeId router, net::Ipv4Addr anycast) override;
  bool supports_member_discovery() const override { return true; }
  std::vector<net::NodeId> discovered_members(net::NodeId viewpoint,
                                              net::Ipv4Addr anycast) const override;
  net::Cost distance(net::NodeId from, net::NodeId to) const override;
  std::uint64_t epoch() const override { return epoch_; }
  void on_link_change(net::LinkId link) override;
  std::uint64_t messages_sent() const override { return messages_sent_; }

  /// Number of SPF runs executed (for overhead experiments).
  std::uint64_t spf_runs() const { return spf_runs_; }

 private:
  struct LsaAdjacency {
    net::NodeId neighbor;
    net::Cost cost;
    net::LinkId link;
  };

  struct Lsa {
    net::NodeId origin;
    std::uint64_t sequence = 0;
    std::vector<LsaAdjacency> adjacencies;
    std::vector<net::Ipv4Addr> anycast_addresses;  // the high-cost stubs
  };

  struct RouterState {
    std::map<net::NodeId, Lsa> lsdb;
    std::set<net::Ipv4Addr> memberships;  // anycast addresses terminated here
    std::uint64_t own_sequence = 0;
    bool spf_pending = false;
    // Distances from the last SPF run (empty before the first), for
    // distance() queries.
    std::vector<net::Cost> distance;
    // The first hop and link toward each router of the domain, by index in
    // the domain, as of the last SPF run (invalid when unreachable).
    std::vector<std::pair<net::NodeId, net::LinkId>> first_hop;
  };

  bool in_domain(net::NodeId node) const;
  RouterState& state(net::NodeId node);
  const RouterState& state(net::NodeId node) const;

  /// Build and flood a fresh LSA for `router`.
  void originate(net::NodeId router);

  /// Process an LSA arriving at `router` via `via_link`.
  void receive(net::NodeId router, Lsa lsa, net::LinkId via_link);

  /// Flood `lsa` from `router` on all usable intra-domain links except
  /// `except` (the link it arrived on).
  void flood(net::NodeId router, const Lsa& lsa, net::LinkId except);

  /// Send `from`'s entire LSDB to `to` over `via` (OSPF-style database
  /// exchange when an adjacency comes up); re-floods whatever is newer.
  void sync_database(net::NodeId from, net::NodeId to, net::LinkId via);

  void schedule_spf(net::NodeId router);
  void run_spf(net::NodeId router);

  /// Graph as seen in `router`'s LSDB.
  net::Graph lsdb_graph(const RouterState& st) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  net::DomainId domain_;
  std::vector<RouterState> states_;  // by the router's index in the domain
  std::uint64_t messages_sent_ = 0;
  std::uint64_t spf_runs_ = 0;
  std::uint64_t epoch_ = 0;
  bool started_ = false;
};

}  // namespace evo::igp
