#include "net/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

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
  const auto paths =
      dijkstra(g, NodeId{0}, [&](NodeId node, const ShortestPathSearch&) {
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
  const auto paths = dijkstra(
      g, NodeId{0}, [&](NodeId node, const ShortestPathSearch& search) {
        order.push_back(node);
        return search.distance(node.value()) < 2;
      });
  EXPECT_EQ(order, (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_FALSE(paths.reachable(NodeId{4}));
}

/// A random graph with many ties: costs 0, 1 or 2, a third of the edges
/// one-way, and some nodes unreachable from node 0.
Graph random_graph(std::uint32_t nodes, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> node(0, nodes - 1);
  std::uniform_int_distribution<Cost> cost(0, 2);
  Graph g(nodes);
  for (std::uint32_t i = 0; i < 2 * nodes; ++i) {
    const NodeId a{node(rng)};
    const NodeId b{node(rng)};
    if (a == b) continue;
    if (i % 3 == 0) {
      g.add_edge(a, b, cost(rng));
    } else {
      g.add_undirected_edge(a, b, cost(rng));
    }
  }
  return g;
}

/// `search`'s settled nodes carry the entries and the order `full` (a
/// run to completion) gives them.
void expect_settled_prefix(const DijkstraFrontier<NodeId>& search,
                           const ShortestPaths& full,
                           const std::vector<std::uint32_t>& full_order) {
  const auto& order = search.order();
  ASSERT_LE(order.size(), full_order.size());
  EXPECT_TRUE(std::equal(order.begin(), order.end(), full_order.begin()));
  for (const std::uint32_t u : order) {
    EXPECT_TRUE(search.settled(u));
    EXPECT_EQ(search.distance(u), full.distance[u]) << "node " << u;
    EXPECT_EQ(search.predecessor(u), full.predecessor[u]) << "node " << u;
  }
}

TEST(DijkstraFrontier, ResumedSearchMatchesDijkstra) {
  constexpr std::uint32_t kNodes = 40;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    const Graph g = random_graph(kNodes, seed);
    std::vector<std::uint32_t> full_order;
    const auto full =
        dijkstra(g, NodeId{0}, [&](NodeId node, const ShortestPathSearch&) {
          full_order.push_back(node.value());
          return true;
        });
    // Stop every `step` settles, checking the settled prefix at each stop.
    for (const std::size_t step : {1, 2, 3, 7}) {
      DijkstraFrontier<NodeId> search;
      search.reset(kNodes);
      search.add_source(0);
      while (search.next_distance() != kInfiniteCost) {
        for (std::size_t i = 0; i < step && search.next_distance() != kInfiniteCost;
             ++i) {
          search.settle_next(out_edges(g));
        }
        expect_settled_prefix(search, full, full_order);
      }
      EXPECT_EQ(search.order(), full_order) << "seed " << seed << " step " << step;
      for (std::uint32_t u = 0; u < kNodes; ++u) {
        EXPECT_EQ(search.settled(u), full.reachable(NodeId{u}));
        EXPECT_EQ(search.distance(u), full.distance[u]);
        EXPECT_EQ(search.predecessor(u), full.predecessor[u]);
      }
    }
  }
}

TEST(DijkstraFrontier, SettlingThroughADistanceSettlesEveryTie) {
  constexpr std::uint32_t kNodes = 40;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    const Graph g = random_graph(kNodes, seed);
    std::vector<std::uint32_t> full_order;
    const auto full =
        dijkstra(g, NodeId{0}, [&](NodeId node, const ShortestPathSearch&) {
          full_order.push_back(node.value());
          return true;
        });
    DijkstraFrontier<NodeId> search;
    search.reset(kNodes);
    search.add_source(0);
    for (Cost bound = 0; search.next_distance() != kInfiniteCost; ++bound) {
      while (search.next_distance() <= bound) search.settle_next(out_edges(g));
      expect_settled_prefix(search, full, full_order);
      for (std::uint32_t u = 0; u < kNodes; ++u) {
        EXPECT_EQ(search.settled(u), full.distance[u] <= bound)
            << "seed " << seed << " node " << u << " bound " << bound;
      }
    }
  }
}

TEST(DijkstraFrontier, ResetAfterAPartialSearchMatchesAFreshOne) {
  // One frontier reused: a partial search from one source, then a reset
  // that unreaches only what it touched, then a full search from another.
  constexpr std::uint32_t kNodes = 40;
  DijkstraFrontier<NodeId> search;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    const Graph g = random_graph(kNodes, seed);
    search.reset(kNodes);
    search.add_source(seed % kNodes);
    for (std::uint32_t i = 0; i < seed % 7 && search.next_distance() != kInfiniteCost;
         ++i) {
      search.settle_next(out_edges(g));
    }
    const NodeId source{(seed * 7) % kNodes};
    search.reset(kNodes);
    search.add_source(source.value());
    while (search.next_distance() != kInfiniteCost) search.settle_next(out_edges(g));
    const auto full = dijkstra(g, source);
    for (std::uint32_t u = 0; u < kNodes; ++u) {
      EXPECT_EQ(search.settled(u), full.reachable(NodeId{u})) << "seed " << seed;
      EXPECT_EQ(search.distance(u), full.distance[u]) << "seed " << seed;
      EXPECT_EQ(search.predecessor(u), full.predecessor[u]) << "seed " << seed;
    }
  }
}

TEST(Dijkstra, MultiSourceDistanceIsTheClosestSourcesDistance) {
  // On undirected graphs the distance a multi-source search gives a node
  // is the shortest of the node's own distances to the sources: what the
  // anycast intra-domain-closest oracle reads off one search per domain.
  constexpr std::uint32_t kNodes = 30;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> node(0, kNodes - 1);
    std::uniform_int_distribution<Cost> cost(0, 2);  // many ties
    Graph g(kNodes);
    for (std::uint32_t i = 0; i < 3 * kNodes / 2; ++i) {
      const NodeId a{node(rng)};
      const NodeId b{node(rng)};
      if (a != b) g.add_undirected_edge(a, b, cost(rng));
    }
    std::vector<NodeId> sources;
    for (std::uint32_t i = 0; i <= seed % 4; ++i) sources.push_back(NodeId{node(rng)});
    const auto multi = dijkstra(g, std::span<const NodeId>(sources));
    for (std::uint32_t u = 0; u < kNodes; ++u) {
      const auto from_u = dijkstra(g, NodeId{u});
      Cost closest = kInfiniteCost;
      for (const NodeId s : sources) closest = std::min(closest, from_u.distance_to(s));
      EXPECT_EQ(multi.distance_to(NodeId{u}), closest) << "seed " << seed << " node " << u;
    }
  }
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
