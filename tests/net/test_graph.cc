#include "net/graph.h"

#include <gtest/gtest.h>

namespace evo::net {
namespace {

Graph line(std::size_t n, Cost cost = 1) {
  Graph g(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    g.add_undirected_edge(NodeId{i}, NodeId{i + 1}, cost);
  }
  return g;
}

TEST(Graph, SizeAndEdges) {
  Graph g = line(4);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_count(), 6u);  // 3 undirected = 6 directed
  EXPECT_EQ(g.neighbors(NodeId{1}).size(), 2u);
}

TEST(Dijkstra, LineDistances) {
  Graph g = line(5, 2);
  const auto paths = dijkstra(g, NodeId{0});
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(paths.distance_to(NodeId{i}), 2u * i);
  }
}

TEST(Dijkstra, PathExtraction) {
  Graph g = line(4);
  const auto paths = dijkstra(g, NodeId{0});
  const auto path = paths.path_to(NodeId{3});
  ASSERT_EQ(path.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(path[i], NodeId{i});
}

TEST(Dijkstra, UnreachableNode) {
  Graph g(3);
  g.add_undirected_edge(NodeId{0}, NodeId{1}, 1);
  const auto paths = dijkstra(g, NodeId{0});
  EXPECT_FALSE(paths.reachable(NodeId{2}));
  EXPECT_EQ(paths.distance_to(NodeId{2}), kInfiniteCost);
  EXPECT_TRUE(paths.path_to(NodeId{2}).empty());
}

TEST(Dijkstra, PrefersCheaperLongerPath) {
  Graph g(4);
  g.add_undirected_edge(NodeId{0}, NodeId{3}, 10);  // direct but expensive
  g.add_undirected_edge(NodeId{0}, NodeId{1}, 2);
  g.add_undirected_edge(NodeId{1}, NodeId{2}, 2);
  g.add_undirected_edge(NodeId{2}, NodeId{3}, 2);
  const auto paths = dijkstra(g, NodeId{0});
  EXPECT_EQ(paths.distance_to(NodeId{3}), 6u);
  EXPECT_EQ(paths.path_to(NodeId{3}).size(), 4u);
}

TEST(Dijkstra, MultiSourceClosest) {
  Graph g = line(7);
  const NodeId sources[] = {NodeId{0}, NodeId{6}};
  const auto paths = dijkstra(g, std::span<const NodeId>(sources));
  EXPECT_EQ(paths.distance_to(NodeId{2}), 2u);
  EXPECT_EQ(paths.source_of[2].value(), 0u);
  EXPECT_EQ(paths.distance_to(NodeId{5}), 1u);
  EXPECT_EQ(paths.source_of[5].value(), 6u);
}

TEST(Dijkstra, MultiSourceTieGoesToEitherConsistently) {
  Graph g = line(5);
  const NodeId sources[] = {NodeId{0}, NodeId{4}};
  const auto a = dijkstra(g, std::span<const NodeId>(sources));
  const auto b = dijkstra(g, std::span<const NodeId>(sources));
  EXPECT_EQ(a.source_of[2], b.source_of[2]);  // deterministic
  EXPECT_EQ(a.distance_to(NodeId{2}), 2u);
}

TEST(Dijkstra, DuplicateSourcesHandled) {
  Graph g = line(3);
  const NodeId sources[] = {NodeId{0}, NodeId{0}};
  const auto paths = dijkstra(g, std::span<const NodeId>(sources));
  EXPECT_EQ(paths.distance_to(NodeId{2}), 2u);
}

TEST(Dijkstra, SourcePathIsItself) {
  Graph g = line(3);
  const auto paths = dijkstra(g, NodeId{1});
  const auto path = paths.path_to(NodeId{1});
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], NodeId{1});
}

TEST(Dijkstra, DirectedEdgesRespected) {
  Graph g(2);
  g.add_edge(NodeId{0}, NodeId{1}, 1);
  EXPECT_TRUE(dijkstra(g, NodeId{0}).reachable(NodeId{1}));
  EXPECT_FALSE(dijkstra(g, NodeId{1}).reachable(NodeId{0}));
}

TEST(Dijkstra, EqualCostDiamondKeepsTheFirstSettledPredecessor) {
  // 0 reaches 3 through 1 and through 2 at cost 2. 1 and 2 settle at the
  // same distance in id order, and a tie never relaxes, so 1 wins however
  // the edges were added.
  for (const bool one_first : {true, false}) {
    Graph g(4);
    const NodeId first = one_first ? NodeId{1} : NodeId{2};
    const NodeId second = one_first ? NodeId{2} : NodeId{1};
    g.add_undirected_edge(NodeId{0}, first, 1);
    g.add_undirected_edge(NodeId{0}, second, 1);
    g.add_undirected_edge(second, NodeId{3}, 1);
    g.add_undirected_edge(first, NodeId{3}, 1);
    const auto paths = dijkstra(g, NodeId{0});
    EXPECT_EQ(paths.distance_to(NodeId{3}), 2u);
    EXPECT_EQ(paths.predecessor[3], NodeId{1}) << "one_first " << one_first;
  }
}

TEST(Dijkstra, ZeroCostEdgeSettlesAfterItsHigherIdNeighbour) {
  // 1 is reached only across 2's zero-cost edge, so it settles after 2 at
  // the same distance, and 3 (cost 2 through either) keeps 2.
  Graph g(4);
  g.add_undirected_edge(NodeId{0}, NodeId{2}, 1);
  g.add_undirected_edge(NodeId{2}, NodeId{1}, 0);
  g.add_undirected_edge(NodeId{1}, NodeId{3}, 1);
  g.add_undirected_edge(NodeId{2}, NodeId{3}, 1);
  std::vector<NodeId> order;
  const auto paths = dijkstra(g, NodeId{0}, [&](NodeId node, const ShortestPaths&) {
    order.push_back(node);
    return true;
  });
  EXPECT_EQ(order, (std::vector<NodeId>{NodeId{0}, NodeId{2}, NodeId{1}, NodeId{3}}));
  EXPECT_EQ(paths.distance_to(NodeId{1}), 1u);
  EXPECT_EQ(paths.predecessor[1], NodeId{2});
  EXPECT_EQ(paths.predecessor[3], NodeId{2});
}

TEST(Dijkstra, SettleCallbackStopsTheSearch) {
  Graph g = line(5);
  std::vector<NodeId> order;
  const auto paths = dijkstra(g, NodeId{0}, [&](NodeId node, const ShortestPaths& p) {
    order.push_back(node);
    return p.distance_to(node) < 2;
  });
  EXPECT_EQ(order, (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_FALSE(paths.reachable(NodeId{4}));
}

TEST(ConnectedComponents, SingleComponent) {
  Graph g = line(5);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 1u);
}

TEST(ConnectedComponents, MultipleComponents) {
  Graph g(6);
  g.add_undirected_edge(NodeId{0}, NodeId{1}, 1);
  g.add_undirected_edge(NodeId{2}, NodeId{3}, 1);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 4u);  // {0,1} {2,3} {4} {5}
  EXPECT_EQ(comps.label[0], comps.label[1]);
  EXPECT_EQ(comps.label[2], comps.label[3]);
  EXPECT_NE(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[4], comps.label[5]);
}

TEST(BfsHops, CountsHopsNotCosts) {
  Graph g(3);
  g.add_undirected_edge(NodeId{0}, NodeId{1}, 100);
  g.add_undirected_edge(NodeId{1}, NodeId{2}, 100);
  const auto hops = bfs_hops(g, NodeId{0});
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
}

TEST(Graph, EnsureSizeGrows) {
  Graph g(2);
  g.ensure_size(5);
  EXPECT_EQ(g.size(), 5u);
  g.ensure_size(3);  // no shrink
  EXPECT_EQ(g.size(), 5u);
}

}  // namespace
}  // namespace evo::net
