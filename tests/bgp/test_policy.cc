// Gao-Rexford policy behavior: export rules, local preference, and
// valley-freeness — the policy realism the paper's anycast catchment
// claims depend on ("ISPs can, to some extent, control the process of
// redirection through policy choices in their inter-domain routing").
#include <gtest/gtest.h>

#include <memory>

#include "bgp/bgp.h"
#include "igp/link_state.h"

namespace evo::bgp {
namespace {

using net::Ipv4Addr;
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

  sim::Simulator simulator;
  net::Network network;
  std::vector<std::unique_ptr<igp::Igp>> igps;
  std::unique_ptr<BgpSystem> bgp;
};


TEST(GaoRexford, PeerRouteNotExportedToOtherPeer) {
  // x -peer- m -peer- y : m must not provide transit between its peers.
  Topology topo;
  const auto x = topo.add_domain("x");
  const auto m = topo.add_domain("m");
  const auto y = topo.add_domain("y");
  const auto rx = topo.add_router(x);
  const auto rm = topo.add_router(m);
  const auto ry = topo.add_router(y);
  topo.add_interdomain_link(rx, rm, Relationship::kPeer);
  topo.add_interdomain_link(rm, ry, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  // m reaches both; x cannot reach y through m.
  EXPECT_NE(f.bgp->best_route(rm, f.network.topology().domain(x).prefix), nullptr);
  EXPECT_NE(f.bgp->best_route(rm, f.network.topology().domain(y).prefix), nullptr);
  EXPECT_EQ(f.bgp->best_route(rx, f.network.topology().domain(y).prefix), nullptr);
}

TEST(GaoRexford, ProviderRouteNotExportedToPeer) {
  // up -provider-> m -peer- y : m must not give y a route through its
  // provider.
  Topology topo;
  const auto up = topo.add_domain("up");
  const auto m = topo.add_domain("m");
  const auto y = topo.add_domain("y");
  const auto r_up = topo.add_router(up);
  const auto rm = topo.add_router(m);
  const auto ry = topo.add_router(y);
  topo.add_interdomain_link(r_up, rm, Relationship::kCustomer);  // m is up's customer
  topo.add_interdomain_link(rm, ry, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  EXPECT_NE(f.bgp->best_route(rm, f.network.topology().domain(up).prefix), nullptr);
  EXPECT_EQ(f.bgp->best_route(ry, f.network.topology().domain(up).prefix), nullptr);
}

TEST(GaoRexford, CustomerRouteExportedEverywhere) {
  // c is m's customer; m tells its peer y and its provider up about c.
  Topology topo;
  const auto up = topo.add_domain("up");
  const auto m = topo.add_domain("m");
  const auto y = topo.add_domain("y");
  const auto c = topo.add_domain("c");
  const auto r_up = topo.add_router(up);
  const auto rm = topo.add_router(m);
  const auto ry = topo.add_router(y);
  const auto rc = topo.add_router(c);
  topo.add_interdomain_link(r_up, rm, Relationship::kCustomer);
  topo.add_interdomain_link(rm, ry, Relationship::kPeer);
  topo.add_interdomain_link(rm, rc, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto c_prefix = f.network.topology().domain(c).prefix;
  EXPECT_NE(f.bgp->best_route(r_up, c_prefix), nullptr);
  EXPECT_NE(f.bgp->best_route(ry, c_prefix), nullptr);
}

TEST(GaoRexford, CustomerPreferredOverPeerDespiteLongerPath) {
  // dest reachable from m via peer (1 hop) and via customer chain (2
  // hops). Revenue beats length: m must pick the customer route.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto peer = topo.add_domain("peer");
  const auto cust = topo.add_domain("cust");
  const auto mid = topo.add_domain("mid");
  const auto dest = topo.add_domain("dest");
  const auto rm = topo.add_router(m);
  const auto rp = topo.add_router(peer);
  const auto rc = topo.add_router(cust);
  const auto rmid = topo.add_router(mid);
  const auto rd = topo.add_router(dest);
  topo.add_interdomain_link(rm, rp, Relationship::kPeer);
  topo.add_interdomain_link(rp, rd, Relationship::kCustomer);  // peer -> dest
  topo.add_interdomain_link(rm, rc, Relationship::kCustomer);  // m -> cust
  topo.add_interdomain_link(rc, rmid, Relationship::kCustomer);
  topo.add_interdomain_link(rmid, rd, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto* route = f.bgp->best_route(rm, f.network.topology().domain(dest).prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->learned, LearnedFrom::kCustomer);
  EXPECT_EQ(route->as_path.size(), 3u);  // longer but customer
}

TEST(GaoRexford, PeerPreferredOverProvider) {
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto peer = topo.add_domain("peer");
  const auto prov = topo.add_domain("prov");
  const auto dest = topo.add_domain("dest");
  const auto rm = topo.add_router(m);
  const auto rp = topo.add_router(peer);
  const auto rpr = topo.add_router(prov);
  const auto rd = topo.add_router(dest);
  topo.add_interdomain_link(rm, rp, Relationship::kPeer);
  topo.add_interdomain_link(rpr, rm, Relationship::kCustomer);  // prov provides m
  topo.add_interdomain_link(rp, rd, Relationship::kCustomer);
  topo.add_interdomain_link(rpr, rd, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto* route = f.bgp->best_route(rm, f.network.topology().domain(dest).prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->learned, LearnedFrom::kPeer);
}

TEST(GaoRexford, ShorterPathWinsAtEqualPreference) {
  // Two customer paths of different length to the same prefix.
  Topology topo;
  const auto m = topo.add_domain("m");
  const auto c1 = topo.add_domain("c1");
  const auto c2 = topo.add_domain("c2");
  const auto mid = topo.add_domain("mid");
  const auto dest = topo.add_domain("dest", /*stub=*/true);
  const auto rm = topo.add_router(m);
  const auto rc1 = topo.add_router(c1);
  const auto rc2 = topo.add_router(c2);
  const auto rmid = topo.add_router(mid);
  const auto rd0 = topo.add_router(dest);
  const auto rd1 = topo.add_router(dest);
  topo.add_link(rd0, rd1, 1);
  topo.add_interdomain_link(rm, rc1, Relationship::kCustomer);
  topo.add_interdomain_link(rm, rc2, Relationship::kCustomer);
  topo.add_interdomain_link(rc1, rd0, Relationship::kCustomer);  // short: 2 hops
  topo.add_interdomain_link(rc2, rmid, Relationship::kCustomer);
  topo.add_interdomain_link(rmid, rd1, Relationship::kCustomer);  // long: 3 hops
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto* route = f.bgp->best_route(rm, f.network.topology().domain(dest).prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->as_path.size(), 2u);
  EXPECT_EQ(route->as_path[0], c1);
}

TEST(GaoRexford, LoopPreventionRejectsOwnDomain) {
  // Triangle of providers-of-each-other would loop without AS-path checks;
  // convergence itself (finite events) plus correct paths proves the
  // check.
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto c = topo.add_domain("c");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  const auto rc = topo.add_router(c);
  topo.add_interdomain_link(ra, rb, Relationship::kCustomer);
  topo.add_interdomain_link(rb, rc, Relationship::kCustomer);
  topo.add_interdomain_link(rc, ra, Relationship::kCustomer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  const auto* route = f.bgp->best_route(ra, f.network.topology().domain(b).prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_FALSE(route->contains_domain(a));
}

TEST(GaoRexford, ValleyFreeEvenWhenValleyIsShorter) {
  // Classic: two stubs under different providers that peer only at a
  // distant top. x - p1 -peer- p2 - y with x,y stubs. x's path to y must
  // go p1, p2 (valley-free) — and if p1/p2 did not peer, no path at all.
  Topology topo;
  const auto p1 = topo.add_domain("p1");
  const auto p2 = topo.add_domain("p2");
  const auto x = topo.add_domain("x", /*stub=*/true);
  const auto y = topo.add_domain("y", /*stub=*/true);
  const auto rp1 = topo.add_router(p1);
  const auto rp2 = topo.add_router(p2);
  const auto rx = topo.add_router(x);
  const auto ry = topo.add_router(y);
  topo.add_interdomain_link(rp1, rx, Relationship::kCustomer);
  topo.add_interdomain_link(rp2, ry, Relationship::kCustomer);
  // x and y also peer directly with each other's *stubs*? No: to prove
  // valley-freeness, link the stubs as mutual peers — still no transit
  // through them for their providers.
  topo.add_interdomain_link(rx, ry, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  // x reaches y directly over the peering.
  const auto* route_xy = f.bgp->best_route(rx, f.network.topology().domain(y).prefix);
  ASSERT_NE(route_xy, nullptr);
  EXPECT_EQ(route_xy->as_path.size(), 1u);
  // But p1 must NOT reach p2's prefix through the x-y stub peering
  // (x learned y via peer => exports only to customers; p1 is x's
  // provider).
  EXPECT_EQ(f.bgp->best_route(rp1, f.network.topology().domain(p2).prefix), nullptr);
}

TEST(GaoRexford, InstallSkipsOwnAggregate) {
  Topology topo;
  const auto a = topo.add_domain("a");
  const auto b = topo.add_domain("b");
  const auto ra = topo.add_router(a);
  const auto rb = topo.add_router(b);
  topo.add_interdomain_link(ra, rb, Relationship::kPeer);
  Fixture f(std::move(topo));
  f.start_and_converge();
  // a's FIB has a BGP route for b's prefix but not for its own.
  const auto& fib = f.network.fib(ra);
  EXPECT_NE(fib.find(f.network.topology().domain(b).prefix), nullptr);
  EXPECT_EQ(fib.find(f.network.topology().domain(a).prefix), nullptr);
}

}  // namespace
}  // namespace evo::bgp
