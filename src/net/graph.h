// Weighted graph over NodeIds with shortest-path algorithms.
//
// Used both by the routing protocols (SPF over a link-state database) and
// as the experiments' ground-truth oracle (exact closest-member distances
// for anycast stretch measurements).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <tuple>
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

/// The "no node" index, all ones: an unreached node's predecessor, and
/// DijkstraFrontier::settle_next's answer once nothing is left to settle.
inline constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/// Dijkstra's search, resumable: the heap and each node's distance and
/// predecessor. Nodes are dense indices. The heap pops (distance, index) in
/// ascending order and an edge relaxes only when strictly shorter, so a
/// node's predecessor is the first settled node with an edge reaching its
/// final distance. The pop order and a settled node's entries depend on the
/// graph and the sources alone, so a search settled a few nodes at a time,
/// stopping anywhere, answers exactly as one run to completion. A `Tracked`
/// frontier also keeps a settled flag per node and the settled nodes in pop
/// order, and its reset() unreaches only what the last search reached; a
/// run to completion (net::dijkstra) does without. `Pred` is constructible
/// from a node index.
template <typename Pred, bool Tracked = true>
class DijkstraFrontier {
 public:
  /// Unreach every node of a graph of `nodes` nodes and drop the sources,
  /// keeping the storage. A tracked frontier of unchanged size unreaches
  /// only the nodes the last search reached.
  void reset(std::size_t nodes) {
    if constexpr (Tracked) {
      if (distance_.size() == nodes) {
        for (const std::uint32_t u : order_) unreach(u);
        for (const Entry& entry : heap_) unreach(entry.second);
        order_.clear();
        heap_.clear();
        return;
      }
      settled_.assign(nodes, false);
      order_.clear();
      order_.reserve(nodes);
    }
    distance_.assign(nodes, kInfiniteCost);
    predecessor_.assign(nodes, Pred{kNoNode});
    heap_.clear();
  }

  void add_source(std::uint32_t s) {
    if (distance_[s] == 0) return;  // duplicate source
    distance_[s] = 0;
    push(0, s);
  }

  /// The distance at which the next node settles; kInfiniteCost once every
  /// reachable node has settled.
  Cost next_distance() {
    while (!heap_.empty() && stale(heap_.front())) pop();
    return heap_.empty() ? kInfiniteCost : heap_.front().first;
  }

  /// Settle the next node, relax its edges and return it; kNoNode once
  /// every reachable node has settled. `edges(u, relax)` calls
  /// relax(v, cost) for each edge out of u.
  template <typename Edges>
  std::uint32_t settle_next(Edges&& edges) {
    while (!heap_.empty()) {
      const auto [dist, u] = heap_.front();
      pop();
      if (stale({dist, u})) continue;
      if constexpr (Tracked) {
        settled_[u] = true;
        order_.push_back(u);
      }
      edges(u, [&](std::uint32_t v, Cost cost) {
        if (dist + cost < distance_[v]) {
          distance_[v] = dist + cost;
          predecessor_[v] = Pred{u};
          push(dist + cost, v);
        }
      });
      return u;
    }
    return kNoNode;
  }

  /// Final once `u` has settled; until then tentative, or kInfiniteCost.
  Cost distance(std::uint32_t u) const { return distance_[u]; }
  Pred predecessor(std::uint32_t u) const { return predecessor_[u]; }
  bool settled(std::uint32_t u) const
    requires Tracked
  {
    return settled_[u];
  }
  /// The settled nodes in pop order, by nondecreasing distance.
  const std::vector<std::uint32_t>& order() const
    requires Tracked
  {
    return order_;
  }

  /// Move the distance and predecessor arrays out; reset() before reuse.
  std::pair<std::vector<Cost>, std::vector<Pred>> release() && {
    return {std::move(distance_), std::move(predecessor_)};
  }

 private:
  using Entry = std::pair<Cost, std::uint32_t>;

  /// An entry superseded by a shorter one for its node, which popped first.
  bool stale(const Entry& entry) const {
    return entry.first > distance_[entry.second];
  }
  void push(Cost dist, std::uint32_t u) {
    heap_.push_back({dist, u});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  void unreach(std::uint32_t u) {
    distance_[u] = kInfiniteCost;
    predecessor_[u] = Pred{kNoNode};
    settled_[u] = false;
  }

  std::vector<Entry> heap_;  // a min-heap on (distance, index)
  std::vector<Cost> distance_;
  std::vector<Pred> predecessor_;
  std::vector<std::uint8_t> settled_;  // Tracked only: bool, one byte each
  std::vector<std::uint32_t> order_;   // Tracked only
};

/// net::dijkstra's frontier: run to completion, so untracked.
using ShortestPathSearch = DijkstraFrontier<NodeId, /*Tracked=*/false>;

/// `graph`'s adjacency in the form DijkstraFrontier::settle_next reads.
inline auto out_edges(const Graph& graph) {
  return [&graph](std::uint32_t u, auto&& relax) {
    for (const Graph::Edge& e : graph.neighbors(NodeId{u})) relax(e.to.value(), e.cost);
  };
}

/// The one Dijkstra loop to completion; every search outside check/ runs
/// it or settles a DijkstraFrontier step by step. `settle(u)` sees each
/// reachable node once, in pop order, after its edges relaxed and with its
/// entries final; returning false stops the search.
template <typename Pred, bool Tracked, typename Edges, typename Settle>
void dijkstra_search(DijkstraFrontier<Pred, Tracked>& search, Edges&& edges,
                     Settle&& settle) {
  for (std::uint32_t u; (u = search.settle_next(edges)) != kNoNode;) {
    if (!settle(u)) return;
  }
}

/// dijkstra()'s default settle callback: search the whole graph.
struct SettleAll {
  bool operator()(NodeId, const ShortestPathSearch&) const { return true; }
};

/// Multi-source shortest paths: distance to the *nearest* source, and which
/// source that is. This is exactly the anycast delivery oracle — "the
/// server closest to the client host where closest is defined in terms of
/// the network's measure of routing distance" (RFC 1546 via the paper).
/// `settle(node, search)` is dijkstra_search's callback, reading the
/// node's final entries from `search`; if it stops the search, unsettled
/// nodes keep tentative values.
template <typename Settle = SettleAll>
ShortestPaths dijkstra(const Graph& graph, std::span<const NodeId> sources,
                       Settle settle = {}) {
  ShortestPathSearch search;
  search.reset(graph.size());
  for (const NodeId s : sources) search.add_source(s.value());
  ShortestPaths paths;
  paths.source_of.assign(graph.size(), NodeId::invalid());
  dijkstra_search(search, out_edges(graph), [&](std::uint32_t u) {
    const NodeId via = search.predecessor(u);
    paths.source_of[u] = via.valid() ? paths.source_of[via.value()] : NodeId{u};
    return settle(NodeId{u}, std::as_const(search));
  });
  std::tie(paths.distance, paths.predecessor) = std::move(search).release();
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
