// Invariant oracles: the paper's qualitative claims turned into checks
// that run against a converged EvolvableInternet at any quiescent point.
//
// Each oracle states a property with an explicit, sound precondition —
// asserted only when ground truth says it must hold, so the fuzzer's
// randomized topologies / deployments / failure schedules never produce
// false alarms:
//
//   kLoopFreedom        no trace ever loops or exhausts its TTL;
//   kNoBlackhole        traffic is delivered whenever the ground-truth
//                       graph (and, inter-domain, full health + policy)
//                       says a destination/member is reachable, and never
//                       over a dead link at quiescence;
//   kMemberDelivery     anycast packets terminate only at live members;
//   kIntraDomainClosest a domain with a live, intra-reachable member
//                       captures its own anycast traffic at the closest
//                       member with exact IGP cost (§3.2);
//   kIgpGroundTruth     LS/DV distances equal Dijkstra on the usable
//                       domain graph;
//   kFibEquivalence     every router's CompiledFib forms the longest-prefix
//                       partition of its authoritative Fib: one range per
//                       piece and the piece's winner at both ends of every
//                       piece, which pins every address;
//   kGaoRexford         every Loc-RIB AS path is loop-free, valley-free,
//                       and consistent with its learned-from class;
//   kVnBoneConnectivity the virtual topology connects active members
//                       whenever the underlay and the anycast bootstrap
//                       allow (§3.3.1 partition repair);
//   kAnycastStateBound  anycast routing state is bounded by the number of
//                       groups (§3.2 state-proportionality claim);
//   kConvergenceBudget  reconvergence completes within an event budget
//                       (emitted by the scenario runner, not here);
//   kVnRouteEquivalence VnBone::route, a lookup into state compiled per
//                       epoch, equals reference_vn_route recomputed from
//                       scratch, under every egress mode;
//   kInstallEquivalence every router's BGP FIB entries, written by the
//                       delta install, equal the install rule applied to
//                       all of its domain's border Loc-RIB prefixes (the
//                       full pass, recomputed from scratch).
//   kVnBoneRebuildEquivalence
//                       VnBone::rebuild()'s links and repair counters
//                       equal reference_vnbone_build recomputed from
//                       scratch, link for link;
//   kRibConsistency     every BGP speaker's Loc-RIB entry is the preferred
//                       offer of its Adj-RIB-In (ties to the lowest
//                       session), and its Adj-RIB-Out flags are set exactly
//                       where the best route is exported over a usable
//                       session;
//   kLegCacheEquivalence
//                       Network::trace_batch, served from the leg cache,
//                       equals Network::trace on the inter-domain unicast
//                       probes, which are the same at every check of a
//                       plan: a forwarding input that changed without
//                       moving the cache's stamp shows as a stale hit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bgp/bgp.h"
#include "core/evolvable_internet.h"
#include "net/graph.h"
#include "net/network.h"
#include "vnbone/vnbone.h"

namespace evo::check {

enum class OracleKind : std::uint8_t {
  kLoopFreedom,
  kNoBlackhole,
  kMemberDelivery,
  kIntraDomainClosest,
  kIgpGroundTruth,
  kFibEquivalence,
  kGaoRexford,
  kVnBoneConnectivity,
  kAnycastStateBound,
  kConvergenceBudget,
  kVnRouteEquivalence,
  kInstallEquivalence,
  kVnBoneRebuildEquivalence,
  kRibConsistency,
  kLegCacheEquivalence,
};

const char* to_string(OracleKind oracle);

struct Violation {
  OracleKind oracle = OracleKind::kLoopFreedom;
  /// Which quiescent point: 0 = after initial deployment converged,
  /// i >= 1 = after churn event i-1.
  std::size_t episode = 0;
  std::string detail;

  std::string describe() const;
};

struct OracleOptions {
  /// Seed for the deterministic random probe addresses / pair sampling.
  std::uint64_t probe_seed = 1;
};

/// The vN-Bone state reference_vn_route reads, taken from public
/// accessors at one quiescent point.
struct VnBoneSnapshot {
  VnBoneSnapshot(const core::EvolvableInternet& internet, const vnbone::VnBone& bone);

  const core::EvolvableInternet& internet;
  const vnbone::VnBone& bone;
  net::Graph virtual_graph;
  /// Deployed and up routers, by domain, ascending.
  std::map<net::DomainId, std::vector<net::NodeId>> active_by_domain;
};

/// The uncached vN-Bone routing decision (§3.3.2): linear scans over the
/// snapshot's members, BGPv(N-1) paths read from the Loc-RIBs and IGP
/// distances read on every call. `tree` must be
/// net::dijkstra(snapshot.virtual_graph, ingress). VnBone::route must
/// return the same VnRoute.
vnbone::VnBone::VnRoute reference_vn_route(const VnBoneSnapshot& snapshot,
                                           const net::ShortestPaths& tree,
                                           net::NodeId ingress, net::IpvNAddr dst,
                                           vnbone::EgressMode mode);

/// What VnBone::rebuild() builds: the virtual links in insertion order and
/// the two repair counters.
struct VnBoneBuild {
  std::vector<vnbone::VirtualLink> links;
  std::size_t partition_repairs = 0;
  std::size_t bootstrap_tunnels = 0;

  friend bool operator==(const VnBoneBuild&, const VnBoneBuild&) = default;
};

/// The vN-Bone construction rules (§3.3.1) recomputed from `bone`'s public
/// state: connected_components over a fresh graph after every partition
/// repair and every bootstrap tunnel, and a full net::dijkstra per
/// stranded router. VnBone::rebuild() must build the same links.
VnBoneBuild reference_vnbone_build(const core::EvolvableInternet& internet,
                                   const vnbone::VnBone& bone);

/// The vnbone-rebuild-equivalence oracle on its own: `built` against
/// reference_vnbone_build for the internet's vN-Bone.
std::vector<Violation> check_vnbone_rebuild_equivalence(
    const core::EvolvableInternet& internet, const VnBoneBuild& built);

/// The install-equivalence oracle on its own: every router's kBgp FIB
/// entries against bgp.full_install_pass(), the install rule applied to
/// every prefix in its domain's border Loc-RIBs from scratch.
std::vector<Violation> check_install_equivalence(const net::Network& network,
                                                 const bgp::BgpSystem& bgp);

/// One piece of a Fib's longest-prefix-match partition: every address in
/// [first, last] matches `winner`, null where no route covers it.
struct LpmPiece {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  const net::FibEntry* winner = nullptr;
};

/// Visit `fib`'s longest-prefix-match partition of the whole address
/// space in address order, from one stack sweep of Fib::entries(): the
/// pieces are maximal, so neighbouring pieces have different winners.
/// `fn` returns false to stop the sweep.
void for_each_lpm_piece(const net::Fib& fib,
                        const std::function<bool(const LpmPiece&)>& fn);

/// The fib-equivalence oracle for one router: `compiled` must carry
/// `fib`'s epoch, have one range per piece of its longest-prefix
/// partition, and give the piece's winner at the first and the last
/// address of every piece and at each of `probes` (ascending). The range
/// count and both ends of every piece pin the table at every address. At
/// most one violation.
std::vector<Violation> check_fib_equivalence(net::NodeId router, const net::Fib& fib,
                                             const net::CompiledFib& compiled,
                                             std::span<const net::Ipv4Addr> probes = {});

/// Run every oracle against the (quiescent, synced) internet. Violations
/// carry episode 0; the caller stamps the real episode index.
std::vector<Violation> check_invariants(const core::EvolvableInternet& internet,
                                        const OracleOptions& options = {});

}  // namespace evo::check
