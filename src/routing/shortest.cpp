#include "routing/shortest.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace pnet::routing {

namespace {

/// Hosts forward nothing: only the search source may be expanded if it is a
/// host.
bool can_transit(const topo::Graph& g, NodeId node, NodeId src) {
  return node == src || !g.is_host(node);
}

Path reconstruct(const std::vector<LinkId>& parent_link, NodeId src,
                 NodeId dst, const topo::Graph& g) {
  Path path;
  NodeId at = dst;
  while (at != src) {
    const LinkId incoming = parent_link[static_cast<std::size_t>(at.v)];
    path.links.push_back(incoming);
    at = g.link(incoming).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

}  // namespace

std::vector<int> bfs_hops(const topo::Graph& g, NodeId src,
                          const std::vector<bool>* banned_links) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        kUnreachable);
  dist[static_cast<std::size_t>(src.v)] = 0;
  std::queue<NodeId> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (!can_transit(g, u, src)) continue;
    for (LinkId id : g.out_links(u)) {
      if (banned_links != nullptr &&
          (*banned_links)[static_cast<std::size_t>(id.v)]) {
        continue;
      }
      const NodeId v = g.link(id).dst;
      if (dist[static_cast<std::size_t>(v.v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v.v)] =
            dist[static_cast<std::size_t>(u.v)] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::optional<Path> shortest_path(const topo::Graph& g, NodeId src,
                                  NodeId dst,
                                  const std::vector<bool>* banned_links) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        kUnreachable);
  std::vector<LinkId> parent_link(static_cast<std::size_t>(g.num_nodes()));
  dist[static_cast<std::size_t>(src.v)] = 0;
  std::queue<NodeId> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (u == dst) break;
    if (!can_transit(g, u, src)) continue;
    for (LinkId id : g.out_links(u)) {
      if (banned_links != nullptr &&
          (*banned_links)[static_cast<std::size_t>(id.v)]) {
        continue;
      }
      const NodeId v = g.link(id).dst;
      if (dist[static_cast<std::size_t>(v.v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v.v)] =
            dist[static_cast<std::size_t>(u.v)] + 1;
        parent_link[static_cast<std::size_t>(v.v)] = id;
        frontier.push(v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst.v)] == kUnreachable) {
    return std::nullopt;
  }
  return reconstruct(parent_link, src, dst, g);
}

std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const LinkWeights& weights,
                             const std::vector<bool>& banned_links,
                             const std::vector<bool>& banned_nodes) {
  SearchWorkspace ws;
  return dijkstra(g, src, dst, weights.data(), banned_links, banned_nodes,
                  ws);
}

std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const double* weights,
                             const std::vector<bool>& banned_links,
                             const std::vector<bool>& banned_nodes,
                             SearchWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto num_nodes = static_cast<std::size_t>(g.num_nodes());
  if (ws.dist.size() != num_nodes) {
    ws.dist.assign(num_nodes, kInf);
    ws.parent_link.resize(num_nodes);
  } else {
    for (const std::int32_t v : ws.touched) {
      ws.dist[static_cast<std::size_t>(v)] = kInf;
    }
  }
  ws.touched.clear();
  ws.heap.clear();
  auto& dist = ws.dist;
  auto& heap = ws.heap;

  auto node_banned = [&](NodeId n) {
    return !banned_nodes.empty() && banned_nodes[static_cast<std::size_t>(n.v)];
  };
  auto link_banned = [&](LinkId l) {
    return !banned_links.empty() && banned_links[static_cast<std::size_t>(l.v)];
  };
  if (node_banned(src) || node_banned(dst)) return std::nullopt;

  // A min-heap on (dist, node): entries are totally ordered, so the pop
  // order does not depend on which entries share the heap.
  constexpr std::greater<> kAfter;
  dist[static_cast<std::size_t>(src.v)] = 0.0;
  ws.touched.push_back(src.v);
  heap.emplace_back(0.0, src.v);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), kAfter);
    const auto [d, uv] = heap.back();
    heap.pop_back();
    const NodeId u{uv};
    if (d > dist[static_cast<std::size_t>(uv)]) continue;
    if (u == dst) break;
    for (LinkId id : g.out_links(u)) {
      const NodeId v = g.link(id).dst;
      const double nd =
          d + (weights != nullptr ? weights[static_cast<std::size_t>(id.v)]
                                  : 1.0);
      double& dv = dist[static_cast<std::size_t>(v.v)];
      // The filters commute, so the one most relaxations fail goes first.
      if (!(nd < dv)) continue;
      // Only the source and `dst` may be hosts on a path: a host entry
      // would be popped and never expanded.
      if (v != dst && g.is_host(v)) continue;
      if (link_banned(id) || node_banned(v)) continue;
      if (dv == kInf) ws.touched.push_back(v.v);
      dv = nd;
      ws.parent_link[static_cast<std::size_t>(v.v)] = id;
      heap.emplace_back(nd, v.v);
      std::push_heap(heap.begin(), heap.end(), kAfter);
    }
  }
  if (dist[static_cast<std::size_t>(dst.v)] == kInf) return std::nullopt;
  return reconstruct(ws.parent_link, src, dst, g);
}

std::vector<std::vector<int>> all_pairs_switch_hops(
    const topo::Graph& g, const std::vector<NodeId>& switches) {
  std::vector<std::vector<int>> out;
  out.reserve(switches.size());
  for (NodeId s : switches) {
    const std::vector<int> dist = bfs_hops(g, s);
    std::vector<int> row;
    row.reserve(switches.size());
    for (NodeId t : switches) {
      row.push_back(dist[static_cast<std::size_t>(t.v)]);
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace pnet::routing
