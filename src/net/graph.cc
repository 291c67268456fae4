#include "net/graph.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace evo::net {

void Graph::add_edge(NodeId from, NodeId to, Cost cost, LinkId link) {
  assert(from.value() < adjacency_.size() && to.value() < adjacency_.size());
  adjacency_[from.value()].push_back(Edge{to, cost, link});
}

void Graph::add_undirected_edge(NodeId a, NodeId b, Cost cost, LinkId link) {
  add_edge(a, b, cost, link);
  add_edge(b, a, cost, link);
}

std::size_t Graph::edge_count() const {
  std::size_t total = 0;
  for (const auto& list : adjacency_) total += list.size();
  return total;
}

std::vector<NodeId> ShortestPaths::path_to(NodeId node) const {
  if (!reachable(node)) return {};
  std::vector<NodeId> path;
  for (NodeId cur = node; cur.valid(); cur = predecessor[cur.value()]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Components connected_components(const Graph& graph) {
  const std::size_t n = graph.size();
  Components result;
  result.label.assign(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (result.label[start] != std::numeric_limits<std::uint32_t>::max()) continue;
    stack.push_back(start);
    result.label[start] = result.count;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (const auto& edge : graph.neighbors(NodeId{u})) {
        const auto v = edge.to.value();
        if (result.label[v] == std::numeric_limits<std::uint32_t>::max()) {
          result.label[v] = result.count;
          stack.push_back(v);
        }
      }
    }
    ++result.count;
  }
  return result;
}

std::vector<std::uint32_t> bfs_hops(const Graph& graph, NodeId source) {
  const std::size_t n = graph.size();
  std::vector<std::uint32_t> hops(n, std::numeric_limits<std::uint32_t>::max());
  std::queue<std::uint32_t> frontier;
  hops[source.value()] = 0;
  frontier.push(source.value());
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (const auto& edge : graph.neighbors(NodeId{u})) {
      const auto v = edge.to.value();
      if (hops[v] == std::numeric_limits<std::uint32_t>::max()) {
        hops[v] = hops[u] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

}  // namespace evo::net
