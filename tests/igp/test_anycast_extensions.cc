// Property-based cross-protocol suite: for every IGP variant and several
// topology shapes, the anycast extension must deliver every router's
// packet to the *closest* member ("a datagram will be delivered to the
// server closest to the client host", RFC 1546 via the paper), with
// delivery cost exactly the oracle distance.
#include <gtest/gtest.h>

#include <memory>

#include "igp/distance_vector.h"
#include "igp/link_state.h"
#include "net/topology_gen.h"
#include "sim/random.h"

namespace evo::igp {
namespace {

using net::DomainId;
using net::NodeId;

enum class Proto { kLinkState, kDistanceVector, kDistanceVectorTagged };
enum class Shape { kLine, kRing, kGrid, kRandom };

struct Param {
  Proto proto;
  Shape shape;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string name;
  switch (info.param.proto) {
    case Proto::kLinkState: name = "LinkState"; break;
    case Proto::kDistanceVector: name = "DistVec"; break;
    case Proto::kDistanceVectorTagged: name = "DistVecTagged"; break;
  }
  switch (info.param.shape) {
    case Shape::kLine: name += "Line"; break;
    case Shape::kRing: name += "Ring"; break;
    case Shape::kGrid: name += "Grid"; break;
    case Shape::kRandom: name += "Random"; break;
  }
  return name;
}

net::Topology make_shape(Shape shape) {
  switch (shape) {
    case Shape::kLine: return net::single_domain_line(8);
    case Shape::kRing: return net::single_domain_ring(9);
    case Shape::kGrid: return net::single_domain_grid(4, 3);
    case Shape::kRandom: {
      net::Topology topo;
      const auto d = topo.add_domain("rand", /*stub=*/true);
      sim::Rng rng{1234};
      net::IntraDomainParams params;
      params.routers = 10;
      params.chord_probability = 0.35;
      params.min_cost = 1;
      params.max_cost = 9;
      populate_domain(topo, d, params, rng);
      return topo;
    }
  }
  return net::single_domain_line(2);
}

class AnycastExtensionTest : public testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(make_shape(GetParam().shape));
    switch (GetParam().proto) {
      case Proto::kLinkState:
        igp_ = std::make_unique<LinkStateIgp>(simulator_, *network_, DomainId{0});
        break;
      case Proto::kDistanceVector:
        igp_ = std::make_unique<DistanceVectorIgp>(simulator_, *network_,
                                                   DomainId{0});
        break;
      case Proto::kDistanceVectorTagged:
        igp_ = std::make_unique<DistanceVectorIgp>(simulator_, *network_, DomainId{0},
                                                   /*tagged_advertisements=*/true);
        break;
    }
  }

  void add_member(NodeId node) {
    network_->add_local_address(node, anycast_);
    igp_->add_anycast_member(node, anycast_);
    members_.push_back(node);
  }

  void converge() {
    if (!started_) {
      igp_->start();
      started_ = true;
    }
    simulator_.run();
  }

  /// The oracle distance from `src` to the closest member.
  net::Cost oracle(NodeId src) const {
    const auto paths = net::dijkstra(network_->topology().physical_graph(),
                                     std::span<const NodeId>(members_));
    return paths.distance_to(src);
  }

  sim::Simulator simulator_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Igp> igp_;
  const net::Ipv4Addr anycast_{0, 1, 255, 1};
  std::vector<NodeId> members_;
  bool started_ = false;
};

TEST_P(AnycastExtensionTest, SingleMemberAllRoutersReach) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers[routers.size() / 2]);
  converge();
  for (const NodeId src : routers) {
    const auto result = network_->trace(src, anycast_);
    ASSERT_TRUE(result.delivered()) << "from " << src.value();
    EXPECT_EQ(result.cost, oracle(src));
  }
}

TEST_P(AnycastExtensionTest, TwoMembersClosestWins) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers.front());
  add_member(routers.back());
  converge();
  for (const NodeId src : routers) {
    const auto result = network_->trace(src, anycast_);
    ASSERT_TRUE(result.delivered()) << "from " << src.value();
    // Delivery cost must equal the closest-member oracle distance (the
    // member identity may differ only under exact ties).
    EXPECT_EQ(result.cost, oracle(src)) << "from " << src.value();
  }
}

TEST_P(AnycastExtensionTest, ThreeMembersStillOptimal) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers[0]);
  add_member(routers[routers.size() / 2]);
  add_member(routers[routers.size() - 1]);
  converge();
  for (const NodeId src : routers) {
    const auto result = network_->trace(src, anycast_);
    ASSERT_TRUE(result.delivered());
    EXPECT_EQ(result.cost, oracle(src));
  }
}

TEST_P(AnycastExtensionTest, MemberIsItsOwnClosest) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers[1]);
  converge();
  const auto result = network_->trace(routers[1], anycast_);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.delivered_at, routers[1]);
  EXPECT_EQ(result.cost, 0u);
}

TEST_P(AnycastExtensionTest, LateJoinRedirectsTraffic) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers.front());
  converge();
  const auto before = network_->trace(routers.back(), anycast_);
  ASSERT_TRUE(before.delivered());
  // A member joins right next to the probe source.
  add_member(routers.back());
  converge();
  const auto after = network_->trace(routers.back(), anycast_);
  ASSERT_TRUE(after.delivered());
  EXPECT_EQ(after.cost, 0u);
  EXPECT_EQ(after.delivered_at, routers.back());
}

TEST_P(AnycastExtensionTest, DiscoveryMatchesCapability) {
  const auto& routers = network_->topology().domain(DomainId{0}).routers;
  add_member(routers.front());
  add_member(routers.back());
  converge();
  const auto members = igp_->discovered_members(routers[1], anycast_);
  if (igp_->supports_member_discovery()) {
    EXPECT_EQ(members.size(), 2u);
  } else {
    EXPECT_TRUE(members.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndShapes, AnycastExtensionTest,
    testing::Values(Param{Proto::kLinkState, Shape::kLine},
                    Param{Proto::kLinkState, Shape::kRing},
                    Param{Proto::kLinkState, Shape::kGrid},
                    Param{Proto::kLinkState, Shape::kRandom},
                    Param{Proto::kDistanceVector, Shape::kLine},
                    Param{Proto::kDistanceVector, Shape::kRing},
                    Param{Proto::kDistanceVector, Shape::kGrid},
                    Param{Proto::kDistanceVector, Shape::kRandom},
                    Param{Proto::kDistanceVectorTagged, Shape::kLine},
                    Param{Proto::kDistanceVectorTagged, Shape::kRing},
                    Param{Proto::kDistanceVectorTagged, Shape::kGrid},
                    Param{Proto::kDistanceVectorTagged, Shape::kRandom}),
    param_name);

}  // namespace
}  // namespace evo::igp
