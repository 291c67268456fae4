// Weighted graph over NodeIds with shortest-path algorithms.
//
// Used both by the routing protocols (SPF over a link-state database) and
// as the experiments' ground-truth oracle (exact closest-member distances
// for anycast stretch measurements).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "net/ids.h"

namespace evo::net {

/// Link cost / path distance. Integer for exact determinism.
using Cost = std::uint64_t;
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::max();

/// Adjacency-list weighted graph. Nodes are dense indices [0, size).
/// Edges can be added directed or (the common case for links) symmetric.
class Graph {
 public:
  struct Edge {
    NodeId to;
    Cost cost = 1;
    LinkId link;  // invalid() when the edge has no physical-link identity
  };

  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  std::size_t size() const { return adjacency_.size(); }

  /// Grow to at least `node_count` nodes.
  void ensure_size(std::size_t node_count) {
    if (adjacency_.size() < node_count) adjacency_.resize(node_count);
  }

  void add_edge(NodeId from, NodeId to, Cost cost, LinkId link = LinkId::invalid());
  void add_undirected_edge(NodeId a, NodeId b, Cost cost,
                           LinkId link = LinkId::invalid());

  std::span<const Edge> neighbors(NodeId node) const {
    return adjacency_[node.value()];
  }

  std::size_t edge_count() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
};

/// Result of a (multi-source) Dijkstra run.
struct ShortestPaths {
  std::vector<Cost> distance;        // kInfiniteCost if unreachable
  std::vector<NodeId> predecessor;   // invalid() at sources / unreachable
  std::vector<NodeId> source_of;     // which source serves this node

  bool reachable(NodeId node) const {
    return distance[node.value()] != kInfiniteCost;
  }
  Cost distance_to(NodeId node) const { return distance[node.value()]; }

  /// Path from the serving source to `node` (inclusive); empty if
  /// unreachable.
  std::vector<NodeId> path_to(NodeId node) const;
};

/// The one Dijkstra loop; every shortest-path search outside check/ runs
/// it. Nodes are dense indices, and `distance` and `predecessor` arrive
/// filled with kInfiniteCost and the "no node" value. The heap pops
/// (distance, index) in ascending order and an edge relaxes only when
/// strictly shorter, so a node's predecessor, Pred{u}, is the first
/// settled u with an edge reaching its final distance. `settle(u, dist)`
/// sees each reachable node once, in pop order, with its entries final;
/// returning false stops the search. `edges(u, relax)` calls relax(v, cost)
/// for each edge out of u. `sources` is a range of indices.
template <typename Sources, typename Pred, typename Edges, typename Settle>
void dijkstra_search(Sources&& sources, std::vector<Cost>& distance,
                     std::vector<Pred>& predecessor, Edges&& edges, Settle&& settle) {
  using Entry = std::pair<Cost, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const std::uint32_t s : sources) {
    if (distance[s] == 0) continue;  // duplicate source
    distance[s] = 0;
    heap.push({0, s});
  }
  while (!heap.empty()) {
    const Cost dist = heap.top().first;
    const std::uint32_t u = heap.top().second;
    heap.pop();
    if (dist > distance[u]) continue;  // stale entry
    if (!settle(u, dist)) return;
    edges(u, [&](std::uint32_t v, Cost cost) {
      if (dist + cost < distance[v]) {
        distance[v] = dist + cost;
        predecessor[v] = Pred{u};
        heap.push({dist + cost, v});
      }
    });
  }
}

/// dijkstra()'s default settle callback: search the whole graph.
struct SettleAll {
  bool operator()(NodeId, const ShortestPaths&) const { return true; }
};

/// Multi-source shortest paths: distance to the *nearest* source, and which
/// source that is. This is exactly the anycast delivery oracle — "the
/// server closest to the client host where closest is defined in terms of
/// the network's measure of routing distance" (RFC 1546 via the paper).
/// `settle(node, paths)` is dijkstra_search's callback, with the node's
/// entries in `paths` final; if it stops the search, unsettled nodes keep
/// tentative values.
template <typename Settle = SettleAll>
ShortestPaths dijkstra(const Graph& graph, std::span<const NodeId> sources,
                       Settle settle = {}) {
  ShortestPaths paths;
  paths.distance.assign(graph.size(), kInfiniteCost);
  paths.predecessor.assign(graph.size(), NodeId::invalid());
  paths.source_of.assign(graph.size(), NodeId::invalid());
  dijkstra_search(
      std::views::transform(sources, [](NodeId s) { return s.value(); }),
      paths.distance, paths.predecessor,
      [&](std::uint32_t u, auto&& relax) {
        for (const Graph::Edge& e : graph.neighbors(NodeId{u})) {
          relax(e.to.value(), e.cost);
        }
      },
      [&](std::uint32_t u, Cost) {
        const NodeId via = paths.predecessor[u];
        paths.source_of[u] = via.valid() ? paths.source_of[via.value()] : NodeId{u};
        return settle(NodeId{u}, std::as_const(paths));
      });
  return paths;
}

/// Single-source shortest paths.
template <typename Settle = SettleAll>
ShortestPaths dijkstra(const Graph& graph, NodeId source, Settle settle = {}) {
  return dijkstra(graph, std::span<const NodeId>(&source, 1), settle);
}

/// Connected components (treating edges as undirected); returns a label per
/// node and the number of components.
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
Components connected_components(const Graph& graph);

/// Hop-count BFS from a single source (all edge costs treated as 1).
std::vector<std::uint32_t> bfs_hops(const Graph& graph, NodeId source);

}  // namespace evo::net
