// BGP internals: parallel links, iBGP preference rules, update batching,
// and install-time interactions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bgp/bgp.h"
#include "check/oracles.h"
#include "igp/link_state.h"

namespace evo::bgp {
namespace {

using net::DomainId;
using net::Ipv4Addr;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::Topology;

struct Fixture {
  explicit Fixture(Topology topo) : network(std::move(topo)) {
    for (const auto& domain : network.topology().domains()) {
      igps.push_back(
          std::make_unique<igp::LinkStateIgp>(simulator, network, domain.id));
    }
    bgp = std::make_unique<BgpSystem>(simulator, network, igps);
  }

  void start_and_converge() {
    for (auto& igp : igps) igp->start();
    bgp->start();
    simulator.run();
    bgp->install_routes();
  }

  void converge() {
    simulator.run();
    bgp->install_routes();
  }

  /// Every router's BGP entries equal what a full install pass writes.
  void expect_full_pass() const {
    for (const auto& v : check::check_install_equivalence(network, *bgp)) {
      ADD_FAILURE() << v.describe();
    }
  }

  /// Every Loc-RIB entry is its Adj-RIB-In's preferred offer and every
  /// Adj-RIB-Out flag matches what the best route exports.
  void expect_consistent() const {
    if (const auto why = bgp->rib_inconsistency()) ADD_FAILURE() << *why;
  }

  /// `node`'s BGP entry for `prefix`, or null.
  const net::FibEntry* bgp_entry(NodeId node, Prefix prefix) const {
    const auto* entry = network.fib(node).find(prefix);
    return entry != nullptr && entry->origin == net::RouteOrigin::kBgp ? entry
                                                                       : nullptr;
  }

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::Igp>> igps;
  std::unique_ptr<BgpSystem> bgp;
};

TEST(BgpDetails, IbgpSessionFollowsIgpReachability) {
  // Transit a has borders a0 (customer b behind it) and a1 (peer c behind
  // it), joined by one intra-domain link. Once the IGP loses a1, a1 must
  // stop speaking for b: it cannot carry the traffic itself.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto c = topo.add_domain("c");
  const auto a0 = topo.add_router(a);
  const auto a1 = topo.add_router(a);
  const auto rb = topo.add_router(b);
  const auto rc = topo.add_router(c);
  const auto cut = topo.add_link(a0, a1);
  topo.add_interdomain_link(a0, rb, Relationship::kCustomer);
  topo.add_interdomain_link(a1, rc, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix b_prefix = f.network.topology().domain(b).prefix;
  ASSERT_NE(f.bgp->best_route(a1, b_prefix), nullptr);
  ASSERT_NE(f.bgp->best_route(rc, b_prefix), nullptr);
  EXPECT_FALSE(f.bgp->sync_sessions());  // converged: nothing to change

  f.network.topology().set_link_up(cut, false);
  f.igps[a.value()]->on_link_change(cut);
  f.converge();
  // Sessions are re-checked only at the quiescent sync.
  EXPECT_NE(f.bgp->best_route(a1, b_prefix), nullptr);
  EXPECT_TRUE(f.bgp->sync_sessions());
  f.converge();
  EXPECT_EQ(f.bgp->best_route(a1, b_prefix), nullptr);
  EXPECT_EQ(f.bgp->best_route(rc, b_prefix), nullptr);
  EXPECT_FALSE(f.bgp->sync_sessions());

  f.network.topology().set_link_up(cut, true);
  f.igps[a.value()]->on_link_change(cut);
  f.converge();
  EXPECT_TRUE(f.bgp->sync_sessions());
  f.converge();
  EXPECT_NE(f.bgp->best_route(a1, b_prefix), nullptr);
  EXPECT_NE(f.bgp->best_route(rc, b_prefix), nullptr);
}

TEST(BgpDetails, ParallelLinksBothCarrySessions) {
  // Two physical links between the same pair of routers: two eBGP
  // sessions; killing one keeps reachability through the other.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  const auto l1 = topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  ASSERT_NE(f.bgp->best_route(ra, f.network.topology().domain(b).prefix), nullptr);
  f.network.topology().set_link_up(l1, false);
  f.bgp->on_link_change(l1);
  f.converge();
  EXPECT_NE(f.bgp->best_route(ra, f.network.topology().domain(b).prefix), nullptr);
  const auto trace =
      f.network.trace(ra, f.network.topology().domain(b).prefix.address());
  EXPECT_TRUE(trace.delivered());
}

TEST(BgpDetails, ParallelSessionsTieToTheLowerSession) {
  // Two eBGP links between the same router pair carry equally preferred
  // routes: the lower session (over the first link) wins, and wins again
  // once that link flaps down and up.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  const auto l1 = topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  const auto l2 = topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix b_prefix = f.network.topology().domain(b).prefix;
  const auto via = [&] {
    const Route* route = f.bgp->best_route(ra, b_prefix);
    return route != nullptr ? route->via_link : LinkId::invalid();
  };
  EXPECT_EQ(via(), l1);
  f.expect_consistent();

  f.network.topology().set_link_up(l1, false);
  f.bgp->on_link_change(l1);
  f.converge();
  EXPECT_EQ(via(), l2);
  f.expect_consistent();

  f.network.topology().set_link_up(l1, true);
  f.bgp->on_link_change(l1);
  f.converge();
  EXPECT_EQ(via(), l1);
  f.expect_consistent();
}

TEST(BgpDetails, DirtyPrefixesFlushInPrefixOrder) {
  // Three prefixes are marked dirty out of Prefix order (so their dense
  // ids are out of order too); the one flush sends them in Prefix order,
  // and b learns them in that order.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix lo = Prefix::host(Ipv4Addr{0, 0, 0, 10});
  const Prefix mid = Prefix::host(Ipv4Addr{0, 0, 0, 50});
  const Prefix hi = Prefix::host(Ipv4Addr{0, 0, 0, 90});
  for (const Prefix p : {hi, lo, mid}) f.bgp->originate(a, p, {});
  ASSERT_EQ(f.simulator.pending_events(), 1u);  // a's flush
  ASSERT_EQ(f.simulator.run_events(1), 1u);
  ASSERT_EQ(f.simulator.pending_events(), 3u);  // one UPDATE per prefix
  std::vector<Prefix> learned;
  for (int delivery = 0; delivery < 3; ++delivery) {
    ASSERT_EQ(f.simulator.run_events(1), 1u);
    for (const Prefix p : {lo, mid, hi}) {
      if (f.bgp->best_route(rb, p) != nullptr &&
          std::find(learned.begin(), learned.end(), p) == learned.end()) {
        learned.push_back(p);
      }
    }
  }
  EXPECT_EQ(learned, (std::vector<Prefix>{lo, mid, hi}));
  f.converge();
  f.expect_consistent();
}

TEST(BgpDetails, NeverAdvertisedPrefixSendsNoWithdrawal) {
  // A prefix whose scope excludes b is never advertised to it, so
  // withdrawing the prefix sends nothing over that session.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 70});
  OriginationPolicy scoped;
  scoped.export_scope = std::set<DomainId>{};  // export to nobody
  f.bgp->originate(a, p, scoped);
  f.converge();
  ASSERT_NE(f.bgp->best_route(ra, p), nullptr);
  ASSERT_EQ(f.bgp->best_route(rb, p), nullptr);
  f.expect_consistent();
  const auto before = f.bgp->messages_sent();

  f.bgp->withdraw(a, p);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(ra, p), nullptr);
  EXPECT_EQ(f.bgp->messages_sent(), before);
  f.expect_consistent();
}

TEST(BgpDetails, PathTableInternsEachPathOnce) {
  PathTable table;
  const AsPath one = table.prepend(DomainId{7}, AsPath{});
  EXPECT_EQ(table.prepend(DomainId{7}, AsPath{}).id(), one.id());
  // A chain long enough to span several storage chunks: every earlier
  // handle still reads its own path afterwards.
  std::vector<AsPath> chain{one};
  for (std::uint32_t d = 0; d < 200; ++d) {
    chain.push_back(table.prepend(DomainId{d}, chain.back()));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(chain[i].size(), i + 1);
    EXPECT_EQ(chain[i].back(), DomainId{7});
    if (i > 0) {
      EXPECT_EQ(chain[i].front(), DomainId{static_cast<std::uint32_t>(i - 1)});
    }
  }
  EXPECT_EQ(table.get(chain[50].id()), chain[50]);
  EXPECT_NE(chain[50], chain[51]);
  // Handles of two tables compare by value.
  PathTable other;
  const AsPath two = other.prepend(DomainId{3}, other.prepend(DomainId{7}, AsPath{}));
  EXPECT_EQ(two, table.prepend(DomainId{3}, one));
  EXPECT_NE(two, table.prepend(DomainId{4}, one));
}

TEST(BgpDetails, EbgpPreferredOverIbgpCopy) {
  // A domain with two borders, both reaching the same prefix over eBGP:
  // each keeps its own eBGP route rather than the other's iBGP copy.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto left = topo.add_domain("left");
  const auto right = topo.add_domain("right");
  const auto dest = topo.add_domain("dest", /*stub=*/true);
  const auto m0 = topo.add_router(m);
  const auto m1 = topo.add_router(m);
  topo.add_link(m0, m1, 1);
  const auto rl = topo.add_router(left);
  const auto rr = topo.add_router(right);
  const auto rd = topo.add_router(dest);
  topo.add_interdomain_link(m0, rl, Relationship::kCustomer);
  topo.add_interdomain_link(m1, rr, Relationship::kCustomer);
  topo.add_interdomain_link(rl, rd, Relationship::kCustomer);
  topo.add_interdomain_link(rr, rd, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto prefix = f.network.topology().domain(dest).prefix;
  const auto* at_m0 = f.bgp->best_route(m0, prefix);
  const auto* at_m1 = f.bgp->best_route(m1, prefix);
  ASSERT_NE(at_m0, nullptr);
  ASSERT_NE(at_m1, nullptr);
  EXPECT_FALSE(at_m0->via_ibgp);
  EXPECT_FALSE(at_m1->via_ibgp);
  EXPECT_EQ(at_m0->as_path.front(), left);
  EXPECT_EQ(at_m1->as_path.front(), right);
}

TEST(BgpDetails, OriginateIsIdempotentReplace) {
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 50});
  OriginationPolicy open;
  f.bgp->originate(a, p, open);
  f.converge();
  ASSERT_NE(f.bgp->best_route(rb, p), nullptr);
  // Re-originate with a scope that excludes b: the old advertisement must
  // be superseded (withdrawn at b).
  OriginationPolicy scoped;
  scoped.export_scope = std::set<DomainId>{};  // export to nobody
  f.bgp->originate(a, p, scoped);
  f.converge();
  EXPECT_EQ(f.bgp->best_route(rb, p), nullptr);
  EXPECT_NE(f.bgp->best_route(ra, p), nullptr);  // still has its own
}

TEST(BgpDetails, InstallRespectsIgpOverBgpForSamePrefix) {
  // If the IGP already owns a /32 (anycast member route), install_routes
  // must not clobber it with a BGP route for the identical prefix.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto a0 = topo.add_router(a);
  const auto a1 = topo.add_router(a);
  topo.add_link(a0, a1, 1);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(a1, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  // a0 is an anycast member for some /32 out of b's space (adversarial).
  const Ipv4Addr addr{0, 2, 255, 1};
  f.network.add_local_address(a0, addr);
  f.igps[0]->add_anycast_member(a0, addr);
  f.start_and_converge();
  // b also originates the exact /32 into BGP.
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(b, Prefix::host(addr), policy);
  f.converge();
  // a1 (border) must keep its IGP anycast route toward a0.
  const net::FibEntry* entry = f.network.fib(a1).find(Prefix::host(addr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin, net::RouteOrigin::kAnycast);
  const auto trace = f.network.trace(a1, addr);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.delivered_at, a0);
  f.expect_full_pass();

  // The IGP stops advertising the /32 while a0 still delivers it: only
  // a1's FIB moves, and BGP's /32 takes the IGP's place there.
  f.igps[0]->remove_anycast_member(a0, addr);
  f.converge();
  f.expect_full_pass();
  entry = f.network.fib(a1).find(Prefix::host(addr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin, net::RouteOrigin::kBgp);

  // The IGP /32 appears over the BGP one again.
  f.igps[0]->add_anycast_member(a0, addr);
  f.converge();
  f.expect_full_pass();
  entry = f.network.fib(a1).find(Prefix::host(addr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin, net::RouteOrigin::kAnycast);
}

TEST(BgpDetails, UpdateBatchingBoundsMessages) {
  // Many prefixes originated in one burst are flushed in one batch per
  // session, not one message per prefix per decision round.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto before = f.bgp->messages_sent();
  for (std::uint32_t i = 0; i < 32; ++i) {
    f.bgp->originate(a, Prefix::host(Ipv4Addr{i + 1}), {});
  }
  f.converge();
  // 32 prefixes, one session: 32 updates flow, but no quadratic blowup
  // (each prefix advertised to b exactly once; nothing bounces back).
  EXPECT_LE(f.bgp->messages_sent() - before, 40u);
  EXPECT_NE(f.bgp->best_route(rb, Prefix::host(Ipv4Addr{32})), nullptr);
}

TEST(BgpDetails, LocRibEpochMovesOnlyOnEffectiveChange) {
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Prefix p = Prefix::host(Ipv4Addr{0, 0, 0, 60});
  OriginationPolicy policy;
  policy.propagation_ttl = 3;
  f.bgp->originate(a, p, policy);
  f.converge();
  auto epoch = f.bgp->loc_rib_epoch();

  // Re-originating the same policy re-decides every Loc-RIB entry for p
  // to an equal value: nothing derived from best routes is stale.
  f.bgp->originate(a, p, policy);
  f.converge();
  EXPECT_EQ(f.bgp->loc_rib_epoch(), epoch);

  // A new TTL replaces the best route at both speakers.
  policy.propagation_ttl = 2;
  f.bgp->originate(a, p, policy);
  f.converge();
  EXPECT_GT(f.bgp->loc_rib_epoch(), epoch);
  ASSERT_NE(f.bgp->best_route(rb, p), nullptr);
  EXPECT_EQ(f.bgp->best_route(rb, p)->propagation_ttl, 2);
  epoch = f.bgp->loc_rib_epoch();

  f.bgp->withdraw(a, p);
  f.converge();
  EXPECT_GT(f.bgp->loc_rib_epoch(), epoch);
  EXPECT_EQ(f.bgp->best_route(rb, p), nullptr);
  epoch = f.bgp->loc_rib_epoch();

  // A crash clears the speaker's Loc-RIB at once.
  f.network.topology().set_node_up(rb, false);
  f.bgp->on_node_change(rb, false);
  EXPECT_GT(f.bgp->loc_rib_epoch(), epoch);
  EXPECT_EQ(f.bgp->loc_rib_size(rb), 0u);
}

// ---- delta install: each input that dirties a (domain, prefix) pair ------

/// Transit a: a0 - a1, with a1 peering with b's single router.
struct PeerPair {
  PeerPair() {
    Topology topo;
    const auto a = topo.add_domain("a");
    b = topo.add_domain("b");
    a0 = topo.add_router(a);
    a1 = topo.add_router(a);
    topo.add_link(a0, a1, 1);
    rb = topo.add_router(b);
    ebgp = topo.add_interdomain_link(a1, rb, Relationship::kPeer);
    f = std::make_unique<Fixture>(std::move(topo));
    f->start_and_converge();
    b_prefix = f->network.topology().domain(b).prefix;
  }

  DomainId b;
  NodeId a0, a1, rb;
  LinkId ebgp;
  Prefix b_prefix;
  std::unique_ptr<Fixture> f;
};

TEST(DeltaInstall, EbgpFlap) {
  PeerPair p;
  auto& f = *p.f;
  f.expect_full_pass();
  ASSERT_NE(f.bgp_entry(p.a0, p.b_prefix), nullptr);

  f.network.topology().set_link_up(p.ebgp, false);
  f.bgp->on_link_change(p.ebgp);
  f.converge();
  f.expect_full_pass();
  EXPECT_EQ(f.bgp_entry(p.a0, p.b_prefix), nullptr);
  EXPECT_EQ(f.bgp_entry(p.a1, p.b_prefix), nullptr);

  f.network.topology().set_link_up(p.ebgp, true);
  f.bgp->on_link_change(p.ebgp);
  f.converge();
  f.expect_full_pass();
  EXPECT_NE(f.bgp_entry(p.a0, p.b_prefix), nullptr);
  EXPECT_NE(f.bgp_entry(p.a1, p.b_prefix), nullptr);
}

TEST(DeltaInstall, SilentLinkDownThenInstall) {
  // The eBGP link dies with no protocol told: the Loc-RIBs keep the route,
  // but the egress may no longer forward over it.
  PeerPair p;
  auto& f = *p.f;
  const auto* entry = f.bgp_entry(p.a1, p.b_prefix);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->out_link, p.ebgp);

  f.network.topology().set_link_up(p.ebgp, false);
  f.bgp->install_routes();
  f.expect_full_pass();
  EXPECT_EQ(f.bgp_entry(p.a1, p.b_prefix), nullptr);
  EXPECT_NE(f.bgp->best_route(p.a1, p.b_prefix), nullptr);
}

TEST(DeltaInstall, SilentCrashOfIsolatedRouter) {
  // a0 delivers a /32 that b announces. Its only link dies silently, then
  // a0 itself crashes silently: no link's usability moves at the crash,
  // only the up state, which decides whether a0 still delivers the /32.
  PeerPair p;
  auto& f = *p.f;
  const Ipv4Addr addr{0, 2, 255, 1};
  const Prefix group = Prefix::host(addr);
  f.network.add_local_address(p.a0, addr);
  f.network.add_local_address(p.rb, addr);
  f.bgp->originate(p.b, group, {});
  f.converge();
  ASSERT_EQ(f.bgp_entry(p.a0, group), nullptr);

  const LinkId only = f.network.topology().router(p.a0).links.front();
  f.network.topology().set_link_up(only, false);
  f.bgp->install_routes();
  f.expect_full_pass();
  EXPECT_EQ(f.bgp_entry(p.a0, group), nullptr);

  // Crashed, a0 no longer terminates the /32; its IGP, never told, still
  // names a next hop, so the full pass installs a BGP entry for it.
  f.network.topology().set_node_up(p.a0, false);
  f.bgp->install_routes();
  f.expect_full_pass();
  EXPECT_NE(f.bgp_entry(p.a0, group), nullptr);
}

/// Transit m reaches stub d through borders m0 and m2; internal m1 sits
/// closer to m0 (cost 1) than to m2 (cost 2), and m0 - m2 costs 5.
struct TwoEgresses {
  TwoEgresses() {
    Topology topo;
    m = topo.add_domain("m");
    d = topo.add_domain("d", /*stub=*/true);
    m0 = topo.add_router(m);
    m1 = topo.add_router(m);
    m2 = topo.add_router(m);
    near = topo.add_link(m0, m1, 1);
    topo.add_link(m1, m2, 2);
    topo.add_link(m0, m2, 5);
    const auto d0 = topo.add_router(d);
    const auto d1 = topo.add_router(d);
    topo.add_link(d0, d1, 1);
    topo.add_interdomain_link(m0, d0, Relationship::kCustomer);
    topo.add_interdomain_link(m2, d1, Relationship::kCustomer);
    f = std::make_unique<Fixture>(std::move(topo));
    f->start_and_converge();
    d_prefix = f->network.topology().domain(d).prefix;
  }

  /// m1's next hop toward d, or invalid() without a BGP entry.
  NodeId m1_hop() const {
    const auto* entry = f->bgp_entry(m1, d_prefix);
    return entry != nullptr ? entry->next_hop : NodeId::invalid();
  }

  /// Crash or recover `node` the way the control plane sees it.
  void set_node_up(NodeId node, bool up) {
    f->network.topology().set_node_up(node, up);
    f->bgp->on_node_change(node, up);
    for (const LinkId link : f->network.topology().router(node).links) {
      if (f->network.topology().link(link).interdomain) {
        f->bgp->on_link_change(link);
      } else {
        f->igps[m.value()]->on_link_change(link);
      }
    }
    f->converge();
  }

  DomainId m, d;
  NodeId m0, m1, m2;
  LinkId near;
  Prefix d_prefix;
  std::unique_ptr<Fixture> f;
};

TEST(DeltaInstall, IntraDomainFlapMovesHotPotatoEgress) {
  // Only the IGP moves: no best route changes, yet m1's egress does.
  TwoEgresses t;
  auto& f = *t.f;
  f.expect_full_pass();
  EXPECT_EQ(t.m1_hop(), t.m0);
  const auto epoch = f.bgp->loc_rib_epoch();

  f.network.topology().set_link_up(t.near, false);
  f.igps[t.m.value()]->on_link_change(t.near);
  f.converge();
  EXPECT_EQ(f.bgp->loc_rib_epoch(), epoch);
  f.expect_full_pass();
  EXPECT_EQ(t.m1_hop(), t.m2);

  f.network.topology().set_link_up(t.near, true);
  f.igps[t.m.value()]->on_link_change(t.near);
  f.converge();
  EXPECT_EQ(f.bgp->loc_rib_epoch(), epoch);
  f.expect_full_pass();
  EXPECT_EQ(t.m1_hop(), t.m0);
}

TEST(DeltaInstall, CachedRowServesALaterDirtyPrefix) {
  // The IGP-only flap moves m1's hot-potato egress to m2 with no prefix
  // dirty in m. A prefix d then announces is dirty in m with no router
  // moved: m1 installs it from its row of the flap, which must be the
  // refreshed one.
  TwoEgresses t;
  auto& f = *t.f;
  ASSERT_EQ(t.m1_hop(), t.m0);
  const auto epoch = f.bgp->loc_rib_epoch();
  f.network.topology().set_link_up(t.near, false);
  f.igps[t.m.value()]->on_link_change(t.near);
  f.converge();
  EXPECT_EQ(f.bgp->loc_rib_epoch(), epoch);
  f.expect_full_pass();
  EXPECT_EQ(t.m1_hop(), t.m2);

  const Prefix group = Prefix::host(Ipv4Addr{0, 0, 9, 1});
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(t.d, group, policy);
  f.converge();
  f.expect_full_pass();
  const auto* entry = f.bgp_entry(t.m1, group);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->next_hop, t.m2);
}

TEST(DeltaInstall, MovedRouterAloneIsRecomputed) {
  // d announces an anycast /32; internal m1 then terminates it with no
  // protocol told. Only m1's inputs moved: it drops its BGP entry, and no
  // other router's FIB is written.
  TwoEgresses t;
  auto& f = *t.f;
  const Ipv4Addr addr{0, 0, 9, 1};
  const Prefix group = Prefix::host(addr);
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(t.d, group, policy);
  f.converge();
  ASSERT_NE(f.bgp_entry(t.m1, group), nullptr);
  std::vector<std::uint64_t> epochs;
  for (const auto& router : f.network.topology().routers()) {
    epochs.push_back(f.network.fib(router.id).epoch());
  }

  f.network.add_local_address(t.m1, addr);
  f.bgp->install_routes();
  f.expect_full_pass();
  EXPECT_EQ(f.bgp_entry(t.m1, group), nullptr);
  for (const auto& router : f.network.topology().routers()) {
    if (router.id == t.m1) continue;
    EXPECT_EQ(f.network.fib(router.id).epoch(), epochs[router.id.value()])
        << "router " << router.id.value();
  }
}

TEST(DeltaInstall, BestRoutesVisitInPrefixOrder) {
  // The /32 is first seen after both domain prefixes, so its dense id is
  // the highest while it sorts before them.
  TwoEgresses t;
  auto& f = *t.f;
  const Prefix group = Prefix::host(Ipv4Addr{0, 0, 9, 1});
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(t.d, group, policy);
  f.converge();
  std::vector<Prefix> visited;
  f.bgp->for_each_best_route(t.m0, [&](const Route& r) { visited.push_back(r.prefix); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited.front(), group);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(DeltaInstall, BorderCrashAndRecovery) {
  // The crash clears m0's Loc-RIB at once; recovery refills it.
  TwoEgresses t;
  auto& f = *t.f;
  ASSERT_EQ(t.m1_hop(), t.m0);

  t.set_node_up(t.m0, false);
  f.expect_full_pass();
  EXPECT_EQ(f.bgp->loc_rib_size(t.m0), 0u);
  EXPECT_EQ(t.m1_hop(), t.m2);

  t.set_node_up(t.m0, true);
  f.expect_full_pass();
  f.expect_consistent();
  EXPECT_NE(f.bgp->best_route(t.m0, t.d_prefix), nullptr);
  EXPECT_EQ(t.m1_hop(), t.m0);
}

TEST(DeltaInstall, AnycastMemberInSingleRouterDomain) {
  // s0, the only router of s, joins a group b announces into BGP: it now
  // delivers the /32 itself, and neither its Loc-RIB nor its FIB moves.
  Topology topo;
  const auto s = topo.add_domain("s", /*stub=*/true);
  const auto b = topo.add_domain("b");
  const auto s0 = topo.add_router(s);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(s0, rb, Relationship::kProvider);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const Ipv4Addr addr{0, 2, 255, 1};
  const Prefix group = Prefix::host(addr);
  f.network.add_local_address(rb, addr);
  OriginationPolicy policy;
  policy.anycast = true;
  f.bgp->originate(b, group, policy);
  f.converge();
  ASSERT_NE(f.bgp_entry(s0, group), nullptr);

  f.network.add_local_address(s0, addr);
  f.igps[s.value()]->add_anycast_member(s0, addr);
  f.converge();
  f.expect_full_pass();
  EXPECT_EQ(f.bgp_entry(s0, group), nullptr);
  EXPECT_EQ(f.network.trace(s0, addr).delivered_at, s0);

  f.network.remove_local_address(s0, addr);
  f.igps[s.value()]->remove_anycast_member(s0, addr);
  f.converge();
  f.expect_full_pass();
  EXPECT_NE(f.bgp_entry(s0, group), nullptr);
  EXPECT_EQ(f.network.trace(s0, addr).delivered_at, rb);
}

}  // namespace
}  // namespace evo::bgp
