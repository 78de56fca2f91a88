// Shortest-path primitives: BFS (hop metric), Dijkstra (weighted), and a
// filtered variant used by Yen's algorithm. Host nodes never act as transit:
// a search only expands a host when it is the source, so computed paths obey
// the physical constraint that servers do not forward.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "routing/path.hpp"

namespace pnet::routing {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Hop distance from `src` to every node (kUnreachable if none).
/// `banned_links` (optional, indexed by LinkId::v) excludes failed links:
/// the route-cache recompute path for fault-driven invalidation.
std::vector<int> bfs_hops(const topo::Graph& g, NodeId src,
                          const std::vector<bool>* banned_links = nullptr);

/// One shortest (fewest-hop) path, deterministic tie-break by link id.
std::optional<Path> shortest_path(const topo::Graph& g, NodeId src,
                                  NodeId dst,
                                  const std::vector<bool>* banned_links =
                                      nullptr);

/// Per-link weights for weighted searches; indexed by LinkId::v.
using LinkWeights = std::vector<double>;

/// Weighted shortest path; `banned_links`/`banned_nodes` (optional, may be
/// empty) support Yen's spur computations. Weights must be non-negative.
/// A host other than `dst` is never relaxed (it could not transit), so
/// hosts never enter the heap. Equal-cost ties keep the predecessor that
/// popped first in (dist, node id) order.
std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const LinkWeights& weights,
                             const std::vector<bool>& banned_links = {},
                             const std::vector<bool>& banned_nodes = {});

/// Scratch state for repeated searches: a caller running many searches on
/// one graph (Yen's spurs) keeps one and each search resets only the nodes
/// the previous one touched.
struct SearchWorkspace {
  std::vector<double> dist;  // +inf except at `touched` nodes
  std::vector<LinkId> parent_link;
  std::vector<std::pair<double, std::int32_t>> heap;  // (dist, node)
  std::vector<std::int32_t> touched;
};

/// The Dijkstra behind the overload above, on caller-owned scratch.
/// `weights` may be null for unit weights (indexed by LinkId::v otherwise).
std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const double* weights,
                             const std::vector<bool>& banned_links,
                             const std::vector<bool>& banned_nodes,
                             SearchWorkspace& ws);

/// Hop distances between every pair of switches, indexed by position in
/// `switches`. Used by the fault-tolerance study (Fig 14).
std::vector<std::vector<int>> all_pairs_switch_hops(
    const topo::Graph& g, const std::vector<NodeId>& switches);

}  // namespace pnet::routing
