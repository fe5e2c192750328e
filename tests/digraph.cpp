#include "digraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimsched {

Digraph::Digraph(int numNodes) {
  if (numNodes < 0) throw std::invalid_argument("Digraph: negative size");
  adj_.resize(static_cast<std::size_t>(numNodes));
}

void Digraph::addEdge(int from, int to, Cost weight) {
  if (from < 0 || from >= numNodes() || to < 0 || to >= numNodes()) {
    throw std::out_of_range("Digraph::addEdge: node out of range");
  }
  adj_[static_cast<std::size_t>(from)].push_back(Edge{to, weight});
  ++numEdges_;
}

std::optional<std::vector<int>> Digraph::topologicalOrder() const {
  const int n = numNodes();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    for (const Edge& e : edgesFrom(u)) {
      ++indegree[static_cast<std::size_t>(e.to)];
    }
  }
  std::vector<int> ready;
  for (int u = 0; u < n; ++u) {
    if (indegree[static_cast<std::size_t>(u)] == 0) ready.push_back(u);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (const Edge& e : edgesFrom(u)) {
      if (--indegree[static_cast<std::size_t>(e.to)] == 0) {
        ready.push_back(e.to);
      }
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

std::vector<int> DagShortestPaths::pathTo(int target) const {
  if (dist[static_cast<std::size_t>(target)] >= kInfiniteCost) return {};
  std::vector<int> path;
  for (int v = target; v != -1; v = parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

DagShortestPaths dagShortestPaths(const Digraph& g, int source) {
  const auto order = g.topologicalOrder();
  if (!order.has_value()) {
    throw std::invalid_argument("dagShortestPaths: graph has a cycle");
  }
  DagShortestPaths out;
  out.dist.assign(static_cast<std::size_t>(g.numNodes()), kInfiniteCost);
  out.parent.assign(static_cast<std::size_t>(g.numNodes()), -1);
  out.dist[static_cast<std::size_t>(source)] = 0;
  for (const int u : *order) {
    const Cost du = out.dist[static_cast<std::size_t>(u)];
    if (du >= kInfiniteCost) continue;
    for (const Digraph::Edge& e : g.edgesFrom(u)) {
      if (du + e.weight < out.dist[static_cast<std::size_t>(e.to)]) {
        out.dist[static_cast<std::size_t>(e.to)] = du + e.weight;
        out.parent[static_cast<std::size_t>(e.to)] = u;
      }
    }
  }
  return out;
}

}  // namespace pimsched
