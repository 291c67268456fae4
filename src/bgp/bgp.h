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
#include <span>
#include <string>
#include <unordered_map>
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

/// One (router, prefix) of BgpSystem::full_install_pass(): the entry the
/// install rule gives (nullopt: none) and the router's Fib entry for the
/// prefix, of any origin (null: none).
struct InstallWant {
  net::Prefix prefix;
  std::optional<net::FibEntry> want;
  const net::FibEntry* existing = nullptr;
};

class BgpSystem {
 public:
  /// `network`, `simulator` and the IGPs must outlive this object. `igps`
  /// gives hot-potato distances at FIB-install time and iBGP session
  /// reachability.
  BgpSystem(sim::Simulator& simulator, net::Network& network, igp::IgpTable igps);

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
  /// The one install rule gives the entry BGP wants in a router's FIB for a
  /// prefix, from its domain's border Loc-RIBs and the live IGP, FIB, link
  /// and local-address state: toward the IGP-closest egress holding a best
  /// route, along the router's kIgp FIB entry for the egress's loopback.
  /// It gives none when BGP leaves the prefix to another origin or has no
  /// usable route.
  ///
  /// The install is a delta: one pass per domain with work, writing the
  /// rule's entry through Fib::insert, or removing a kBgp entry the rule no
  /// longer gives. A prefix is dirty in a domain when its best
  /// route changed at one of the domain's borders (decide() or a crash);
  /// every router recomputes it. A router whose own inputs of the rule moved
  /// since BGP's last write recomputes every prefix its domain's borders
  /// hold. Those inputs are its Fib epoch (IGP and anycast writes: LS and
  /// DV install each IGP distance as a loopback entry's metric, so a moved
  /// distance moves the epoch), its up state, the usability of its incident
  /// links and its local addresses. Every other router keeps its entries
  /// for the clean prefixes, which is exact because no other input of a
  /// router's rule belongs to another router. The pass gathers
  /// each prefix's candidate egresses once; a domain with no moved router
  /// visits only its dirty prefixes. Each router's row toward the borders is
  /// kept across calls and recomputed only when its inputs moved, and one
  /// cursor over its sorted Fib finds the existing entry of each prefix in
  /// turn. The first call treats every router as moved.
  void install_routes();

  /// The install rule applied by a full pass from scratch, reading none of
  /// install_routes()' bookkeeping: for every router, domain by domain,
  /// `fn(router, wants)` with one InstallWant per prefix its domain's
  /// borders hold, in Prefix order. The pass gathers each domain's prefixes
  /// and their egresses once, computes each router's row toward the borders
  /// once, and walks each router's Fib with one cursor. `fn` returns false
  /// to stop the pass. The install-equivalence oracle compares every
  /// router's Fib against it.
  void full_install_pass(
      const std::function<bool(net::NodeId, std::span<const InstallWant>)>& fn) const;

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

  /// The table every Route::as_path of this system points into.
  const PathTable& paths() const { return paths_; }

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

  /// The rib-consistency check, run against the incrementally kept state:
  /// every speaker's Loc-RIB entry is the preferred offer in its
  /// Adj-RIB-In, ties going to the lowest session index (the self route
  /// last), and every Adj-RIB-Out flag is set exactly when the best route is
  /// exportable over a usable session. Linear in RIB size. Holds at every
  /// quiescent point after sync_sessions(). Returns the first mismatch.
  std::optional<std::string> rib_inconsistency() const;

 private:
  struct Session {
    net::NodeId local;
    net::NodeId remote;
    net::LinkId link;                 // invalid() for iBGP
    net::Relationship relationship;   // of remote as seen from local (eBGP)
    bool ibgp = false;
    std::size_t reverse = 0;          // the same session seen from `remote`
    std::uint32_t slot = 0;           // position in local's sessions
    bool igp_reachable = true;        // iBGP: as of the last sync_sessions()
  };

  /// Dense prefix id: an index into prefixes_ and every per-speaker table.
  using PrefixId = std::uint32_t;

  /// One UPDATE on the wire: ids into prefixes_ and paths_, so a send
  /// copies 12 bytes and allocates nothing.
  struct Update {
    PrefixId prefix = 0;
    AsPath::Id as_path = 0;
    bool withdraw = false;
    bool no_export = false;
    std::uint8_t propagation_ttl = 0;
    bool anycast = false;
  };

  /// Sentinel session index of a self-originated offer; sorts last.
  static constexpr std::uint32_t kSelfSession = static_cast<std::uint32_t>(-1);

  /// One Adj-RIB-In entry: the route offered over a session.
  struct Offer {
    std::uint32_t session;  // receiving session, or kSelfSession
    Route route;
  };

  /// A set of prefix ids: a list in marking order and a flag per id (the
  /// flags may be shorter than prefixes_).
  struct DirtyPrefixes {
    std::vector<PrefixId> ids;
    std::vector<std::uint8_t> flag;
  };

  /// Per-speaker state, flat by PrefixId. Each table may be shorter than
  /// prefixes_ and grows on first write.
  struct SpeakerState {
    net::DomainId domain;
    std::vector<std::size_t> sessions;  // indices into sessions_
    /// Adj-RIB-In: per prefix, the offers held, sorted by receiving session
    /// with the self route last, so decide() keeps the first of equally
    /// preferred offers. Keying by session (not neighbor) keeps parallel
    /// sessions to the same neighbor independent. Offers stay sparse: a
    /// prefix holds one per session that advertised it.
    std::vector<std::vector<Offer>> adj_rib_in;
    /// Loc-RIB: the winning route per prefix; loc_rib_count counts the
    /// engaged slots.
    std::vector<std::optional<Route>> loc_rib;
    std::size_t loc_rib_count = 0;
    /// Adj-RIB-Out: flag [id * sessions.size() + slot] set while the prefix
    /// is advertised over that session, so withdrawals are sent only where
    /// an advertisement exists.
    std::vector<std::uint8_t> adj_rib_out;
    /// Prefixes originated locally (configuration: shared per domain but
    /// stored per speaker for uniform processing).
    std::map<net::Prefix, OriginationPolicy> originated;
    /// Prefixes whose best changed and need (re-)advertisement; flushed in
    /// Prefix order.
    DirtyPrefixes dirty;
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

  /// The dense id of `prefix`, assigned on first sight.
  PrefixId prefix_id(net::Prefix prefix);
  /// `st`'s best route for the prefix `id`, or null.
  static const Route* loc_rib_at(const SpeakerState& st, PrefixId id) {
    return id < st.loc_rib.size() && st.loc_rib[id] ? &*st.loc_rib[id] : nullptr;
  }

  /// Add `id` to `dirty` unless it is there.
  void mark(DirtyPrefixes& dirty, PrefixId id) const;
  /// Record that `id`'s best route changed at a border of `domain`.
  void mark_install_dirty(net::DomainId domain, PrefixId id) {
    mark(install_dirty_[domain.value()], id);
  }

  /// Store `route` as `st`'s offer for `id` over `session`, replacing one.
  void put_offer(SpeakerState& st, PrefixId id, std::uint32_t session, Route route);
  /// Forget `st`'s offer for `id` over `session`; true if there was one.
  static bool erase_offer(SpeakerState& st, PrefixId id, std::uint32_t session);
  /// `st`'s Adj-RIB-Out flag for (`id`, `slot`), growing the table.
  std::uint8_t& out_flag(SpeakerState& st, PrefixId id, std::uint32_t slot);

  /// A router's view of one border of its domain: the IGP distance (0 at
  /// the border itself) and the router's kIgp FIB entry toward the border's
  /// loopback, copied (via_igp false without one).
  struct BorderHop {
    net::Cost distance = net::kInfiniteCost;
    net::NodeId next_hop;
    net::LinkId link;
    bool via_igp = false;
  };
  /// Fill `row` with `router`'s hop toward each border of its domain, by
  /// position in speakers_of().
  void border_row(net::NodeId router, std::span<BorderHop> row) const;
  /// Append the egress of every best route for `id` at `domain`'s borders,
  /// as positions in speakers_of(domain), in border order.
  void gather_egresses(net::DomainId domain, PrefixId id,
                       std::vector<std::uint32_t>& egresses) const;
  /// The install rule over pre-gathered inputs: `egresses` from
  /// gather_egresses() for `id`, `row` from border_row() for `router`, and
  /// `existing`, the router's Fib entry for the prefix (null without one).
  std::optional<net::FibEntry> install_rule(net::NodeId router, PrefixId id,
                                            std::span<const std::uint32_t> egresses,
                                            std::span<const BorderHop> row,
                                            const net::FibEntry* existing) const;

  /// Append the pair of sessions between `a` and `b`; `relationship` is
  /// b's relationship as seen from a.
  void add_session_pair(net::NodeId a, net::NodeId b, net::LinkId link,
                        net::Relationship relationship, bool ibgp);

  /// Send `update` over `session_index`; it arrives on the reverse session.
  void send(std::size_t session_index, const Update& update);
  /// Handle `update` arriving on `session_index` (the receiver's session).
  void receive(std::size_t session_index, const Update& update);

  /// Install `node`'s self route for a prefix it originates under `policy`,
  /// re-decide, and force a (re-)advertisement pass.
  void seed_self_route(net::NodeId node, net::Prefix prefix,
                       const OriginationPolicy& policy);

  /// Tear down `dead`, sessions of `node`: forget what was learned and
  /// advertised over them and re-decide the affected prefixes.
  void drop_sessions(net::NodeId node, std::span<const std::size_t> dead);

  /// The sessions toward `node` held by its peers (the reverses of its
  /// own), sorted by peer and then by index, so a crash or a recovery
  /// visits the peers in ascending NodeId.
  std::vector<std::size_t> sessions_toward(net::NodeId node) const;

  /// Re-run the decision process for prefix `id` at `node`; queue updates
  /// if the best route changed.
  void decide(net::NodeId node, PrefixId id);

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
  /// The first most preferred of `offers`, or null.
  static const Route* best_offer(std::span<const Offer> offers);

  sim::Simulator& simulator_;
  net::Network& network_;
  igp::IgpTable igps_;
  std::vector<Session> sessions_;
  /// Indexed by NodeId value; only border routers' entries are used.
  std::vector<SpeakerState> speakers_;
  /// Each domain's speakers, sorted by NodeId.
  std::vector<std::vector<net::NodeId>> speakers_of_;
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t loc_rib_epoch_ = 0;
  bool started_ = false;

  /// Every prefix seen, by id; and all ids sorted by prefix, which is the
  /// order every walk over a Loc-RIB follows.
  std::unordered_map<net::Prefix, PrefixId> prefix_ids_;
  std::vector<net::Prefix> prefixes_;
  std::vector<PrefixId> ids_by_prefix_;
  /// Every AS path any route or UPDATE carries.
  PathTable paths_;

  /// install_routes() bookkeeping. Per domain: the prefixes whose best
  /// route changed at one of its borders since the last install.
  std::vector<DirtyPrefixes> install_dirty_;
  /// Per router: the foreign inputs of the install rule as of BGP's last
  /// write (fib_epoch 0 never matches a Fib, so the first call is full).
  struct InstallInputs {
    std::uint64_t fib_epoch = 0;
    std::uint64_t local_address_epoch = 0;
    bool up = false;
  };
  std::vector<InstallInputs> install_inputs_;
  /// Per domain: each router's border_row(), by position in the domain's
  /// router list, as of the last call in which its inputs moved. A row
  /// reads only IGP distances and the router's own kIgp loopback entries,
  /// and both move its Fib epoch.
  std::vector<std::vector<BorderHop>> install_rows_;
  /// Per link: link_usable() as of BGP's last write.
  std::vector<bool> install_link_usable_;
};

}  // namespace evo::bgp
