// Inter-domain routing: an event-driven path-vector protocol with
// Gao-Rexford policies, per-border-router RIBs, iBGP route sharing within
// a domain, and hot-potato FIB installation.
//
// One BgpSystem manages every speaker in the topology. Border routers
// (routers with inter-domain links) are eBGP speakers; border routers of
// the same domain form an iBGP full mesh. Internal routers are not
// speakers — they receive routes at FIB-installation time, forwarding
// toward the IGP-closest border router holding a best route (hot potato).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "bgp/route.h"
#include "igp/igp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace evo::bgp {

/// Latency of iBGP propagation between border routers of one domain.
inline constexpr sim::Duration kIbgpLatency = sim::Duration::millis(2);
/// Debounce between a Loc-RIB change and the UPDATEs it triggers.
inline constexpr sim::Duration kUpdateDelay = sim::Duration::millis(5);

class BgpSystem {
 public:
  /// `network`, `simulator` and the IGP map must outlive this object.
  /// `igp_of` maps each domain to its running IGP (used for hot-potato
  /// distances at FIB-install time).
  BgpSystem(sim::Simulator& simulator, net::Network& network,
            std::function<const igp::Igp*(net::DomainId)> igp_of);

  /// Create sessions and originate every domain's own prefix. Run the
  /// simulator afterwards to converge.
  void start();

  /// Originate `prefix` from `domain` (announced by all of its border
  /// routers) under `policy`.
  void originate(net::DomainId domain, net::Prefix prefix,
                 OriginationPolicy policy = {});
  /// Originate `prefix` at the border router `speaker` alone.
  void originate(net::NodeId speaker, net::Prefix prefix,
                 const OriginationPolicy& policy = {});

  /// Withdraw a locally originated prefix (at every border / at one).
  void withdraw(net::DomainId domain, net::Prefix prefix);
  void withdraw(net::NodeId speaker, net::Prefix prefix);

  /// iBGP sessions follow IGP reachability: re-check each against its
  /// domain's IGP. A session whose peer became unreachable is torn down;
  /// one whose peer is reachable again re-advertises both Loc-RIBs. Call
  /// only at quiescence (mid-convergence IGP distances are transiently
  /// infinite). Returns true when a session changed: UPDATEs are then in
  /// flight.
  bool sync_sessions();

  /// Push converged routes into every router's FIB (hot potato through the
  /// domain's IGP). Call after the simulator reaches quiescence.
  ///
  /// The install is a delta. It rewrites only the (domain, prefix) pairs
  /// whose inputs moved since the previous call, each router of the domain
  /// getting install_entry() through Fib::insert, or losing its kBgp entry
  /// for the prefix. A pair is dirty when the best route for the prefix
  /// changed at any border of the domain (decide() or a crash). A domain
  /// is fully dirty, every prefix of its borders' Loc-RIBs recomputed,
  /// when for one of its routers a foreign input of the rule moved since
  /// BGP's last write: the Fib epoch (IGP and anycast writes, distance and
  /// next-hop changes), the up state, the usability of an incident link,
  /// or the local addresses. The first call treats every domain as dirty.
  void install_routes();

  /// The one install rule: the entry BGP wants in `router`'s FIB for
  /// `prefix`, given its domain's border Loc-RIBs and the live IGP, FIB,
  /// link and local-address state; nullopt when BGP leaves the prefix to
  /// another origin or has no usable route. install_routes() writes it for
  /// every dirty pair; the install-equivalence oracle applies it to all.
  std::optional<net::FibEntry> install_entry(net::NodeId router,
                                             net::Prefix prefix) const;

  /// Best route for `prefix` at `speaker`'s Loc-RIB, if any.
  const Route* best_route(net::NodeId speaker, net::Prefix prefix) const;

  /// Visit every Loc-RIB best route at `speaker` in prefix order, without
  /// materializing prefix lists. No-op for non-speakers. Const inspection
  /// point for policy-compliance oracles (e.g. Gao-Rexford audits).
  void for_each_best_route(net::NodeId speaker,
                           const std::function<void(const Route&)>& fn) const;

  /// Loc-RIB size (for routing-state experiments). `anycast_only` counts
  /// just anycast routes.
  std::size_t loc_rib_size(net::NodeId speaker, bool anycast_only = false) const;

  std::uint64_t messages_sent() const { return messages_sent_; }

  /// Bumped whenever any speaker's Loc-RIB gains, loses or replaces an
  /// entry (a value-equal re-decide does not count). State derived from
  /// best routes is valid for as long as this value is unchanged.
  std::uint64_t loc_rib_epoch() const { return loc_rib_epoch_; }

  /// The speakers (border routers) of a domain, sorted by NodeId.
  const std::vector<net::NodeId>& speakers_of(net::DomainId domain) const {
    return speakers_of_[domain.value()];
  }

  /// Notify that an inter-domain link changed state: sessions over it come
  /// up or go down and routes are re-evaluated.
  void on_link_change(net::LinkId link);

  /// Notify that a router crashed (up=false) or recovered (up=true). A
  /// crashed speaker loses all volatile RIB state (originations survive as
  /// configuration); its peers withdraw everything learned from it. On
  /// recovery the speaker re-seeds its self-originated routes and peers
  /// re-advertise their Loc-RIBs toward it.
  void on_node_change(net::NodeId node, bool up);

  /// Telemetry sink for protocol point events (originations, session
  /// transitions, update flushes). Null by default; records nothing unset.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  struct Session {
    net::NodeId local;
    net::NodeId remote;
    net::LinkId link;                 // invalid() for iBGP
    net::Relationship relationship;   // of remote as seen from local (eBGP)
    bool ibgp = false;
    std::size_t reverse = 0;          // the same session seen from `remote`
    bool igp_reachable = true;        // iBGP: as of the last sync_sessions()
  };

  struct Update {
    net::Prefix prefix;
    bool withdraw = false;
    std::vector<net::DomainId> as_path;
    bool no_export = false;
    std::uint8_t propagation_ttl = 0;
    bool anycast = false;
  };

  /// Sentinel "session" index for self-originated Adj-RIB-In entries.
  static constexpr std::size_t kSelfSession = static_cast<std::size_t>(-1);

  struct SpeakerState {
    net::DomainId domain;
    std::vector<std::size_t> sessions;  // indices into sessions_
    /// Adj-RIB-In: best known offer per (prefix, receiving session).
    /// Keying by session (not neighbor) keeps parallel sessions to the
    /// same neighbor independent.
    std::map<std::pair<net::Prefix, std::size_t>, Route> adj_rib_in;
    /// Loc-RIB: the winning route per prefix.
    std::map<net::Prefix, Route> loc_rib;
    /// Adj-RIB-Out: (prefix, session) pairs currently advertised, so
    /// withdrawals are sent only where an advertisement exists.
    std::set<std::pair<net::Prefix, std::size_t>> adj_rib_out;
    /// Prefixes originated locally (shared per domain but stored per
    /// speaker for uniform processing).
    std::map<net::Prefix, OriginationPolicy> originated;
    /// Prefixes whose best changed and need (re-)advertisement.
    std::set<net::Prefix> dirty;
    bool send_pending = false;
  };

  bool is_speaker(net::NodeId node) const {
    return node.value() < speakers_.size() &&
           network_.topology().router(node).border;
  }
  SpeakerState& speaker(net::NodeId node) {
    assert(is_speaker(node));
    return speakers_[node.value()];
  }
  const SpeakerState& speaker(net::NodeId node) const {
    assert(is_speaker(node));
    return speakers_[node.value()];
  }

  /// Append the pair of sessions between `a` and `b`; `relationship` is
  /// b's relationship as seen from a.
  void add_session_pair(net::NodeId a, net::NodeId b, net::LinkId link,
                        net::Relationship relationship, bool ibgp);

  /// Send `update` over `session_index`; it arrives on the reverse session.
  void send(std::size_t session_index, Update update);
  /// Handle `update` arriving on `session_index` (the receiver's session).
  void receive(std::size_t session_index, const Update& update);

  /// Install `node`'s self route for a prefix it originates under `policy`,
  /// re-decide, and force a (re-)advertisement pass.
  void seed_self_route(net::NodeId node, net::Prefix prefix,
                       const OriginationPolicy& policy);

  /// Tear down the sessions of `node` selected by `dead`: forget what was
  /// learned and advertised over them and re-decide the affected prefixes.
  void drop_sessions(net::NodeId node,
                     const std::function<bool(const Session&)>& dead);

  /// Re-run the decision process for `prefix` at `node`; queue updates if
  /// the best route changed.
  void decide(net::NodeId node, net::Prefix prefix);

  /// True if `route` may be exported over `session` (Gao-Rexford + scope +
  /// no-export + iBGP rules).
  bool exportable(const SpeakerState& st, const Route& route,
                  const Session& session) const;

  void schedule_send(net::NodeId node);
  void flush_updates(net::NodeId node);
  /// Queue `node`'s whole Loc-RIB for (re-)advertisement, as a session
  /// (re-)establishes.
  void readvertise(net::NodeId node);

  /// True when the session can carry updates right now: both speakers up,
  /// and for eBGP the underlying link usable, for iBGP the peer reachable
  /// through the IGP.
  bool session_usable(const Session& session) const;

  /// Total ordering on routes: true if `a` is preferred over `b`.
  static bool preferred(const Route& a, const Route& b);

  /// Find the cheapest up link between adjacent routers (for FIB entries).
  net::LinkId connecting_link(net::NodeId a, net::NodeId b) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  std::function<const igp::Igp*(net::DomainId)> igp_of_;
  std::vector<Session> sessions_;
  /// Indexed by NodeId value; only border routers' entries are used.
  std::vector<SpeakerState> speakers_;
  /// Each domain's speakers, sorted by NodeId.
  std::vector<std::vector<net::NodeId>> speakers_of_;
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t loc_rib_epoch_ = 0;
  bool started_ = false;

  /// install_routes() bookkeeping. Per domain: the prefixes whose best
  /// route changed at one of its borders since the last install.
  std::vector<std::set<net::Prefix>> install_dirty_;
  /// Per router: the foreign inputs of the install rule as of BGP's last
  /// write (fib_epoch 0 never matches a Fib, so the first call is full).
  struct InstallInputs {
    std::uint64_t fib_epoch = 0;
    std::uint64_t local_address_epoch = 0;
    bool up = false;
  };
  std::vector<InstallInputs> install_inputs_;
  /// Per link: link_usable() as of BGP's last write.
  std::vector<bool> install_link_usable_;
};

}  // namespace evo::bgp
