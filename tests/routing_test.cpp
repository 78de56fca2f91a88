// Tests for routing: BFS/Dijkstra correctness, Yen KSP properties (loopless,
// sorted, distinct, complete vs brute force, path-for-path equal to the
// reference implementation), ECMP enumeration/hashing, and cross-plane path
// merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>

#include "routing/ecmp.hpp"
#include "routing/path.hpp"
#include "routing/plane_paths.hpp"
#include "routing/route_table.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/parallel.hpp"
#include "topo/xpander.hpp"
#include "util/rng.hpp"

namespace pnet::routing {
namespace {

using topo::Graph;
using topo::NodeKind;

// The Dijkstra, Yen and cross-plane merge this library shipped before the
// redundant-spur skip, the host-free heap and the reused search workspace,
// kept verbatim as the reference the fast path must match path for path.
namespace reference {

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

std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const LinkWeights& weights,
                             const std::vector<bool>& banned_links = {},
                             const std::vector<bool>& banned_nodes = {}) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), kInf);
  std::vector<LinkId> parent_link(static_cast<std::size_t>(g.num_nodes()));

  auto node_banned = [&](NodeId n) {
    return !banned_nodes.empty() && banned_nodes[static_cast<std::size_t>(n.v)];
  };
  auto link_banned = [&](LinkId l) {
    return !banned_links.empty() && banned_links[static_cast<std::size_t>(l.v)];
  };
  if (node_banned(src) || node_banned(dst)) return std::nullopt;

  using Entry = std::pair<double, std::int32_t>;  // (dist, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src.v)] = 0.0;
  heap.emplace(0.0, src.v);
  while (!heap.empty()) {
    const auto [d, uv] = heap.top();
    heap.pop();
    const NodeId u{uv};
    if (d > dist[static_cast<std::size_t>(uv)]) continue;
    if (u == dst) break;
    if (!can_transit(g, u, src)) continue;
    for (LinkId id : g.out_links(u)) {
      if (link_banned(id)) continue;
      const NodeId v = g.link(id).dst;
      if (node_banned(v)) continue;
      const double nd = d + weights[static_cast<std::size_t>(id.v)];
      if (nd < dist[static_cast<std::size_t>(v.v)]) {
        dist[static_cast<std::size_t>(v.v)] = nd;
        parent_link[static_cast<std::size_t>(v.v)] = id;
        heap.emplace(nd, v.v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst.v)] == kInf) return std::nullopt;
  return reconstruct(parent_link, src, dst, g);
}

struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return a.links < b.links;
  }
};

std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights,
                                   const std::vector<bool>* base_banned) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;

  const LinkWeights unit =
      tiebreak_weights != nullptr
          ? *tiebreak_weights
          : LinkWeights(static_cast<std::size_t>(g.num_links()), 1.0);

  const std::vector<bool> no_base;
  const std::vector<bool>& base =
      base_banned != nullptr ? *base_banned : no_base;

  auto first = dijkstra(g, src, dst, unit, base);
  if (!first) return result;
  result.push_back(std::move(*first));

  std::set<Path, PathLess> candidates;
  std::vector<bool> banned_links(static_cast<std::size_t>(g.num_links()));
  std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();

    // Spur from every node of the previous path except the destination.
    Path root_path;
    root_path.plane = prev.plane;
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      // Ban links that would recreate any already-found path sharing this
      // root; start from the caller's fault mask.
      if (base.empty()) {
        std::fill(banned_links.begin(), banned_links.end(), false);
      } else {
        banned_links.assign(base.begin(), base.end());
      }
      std::fill(banned_nodes.begin(), banned_nodes.end(), false);
      for (const Path& p : result) {
        if (p.links.size() >= i &&
            std::equal(root_path.links.begin(), root_path.links.end(),
                       p.links.begin())) {
          if (p.links.size() > i) {
            banned_links[static_cast<std::size_t>(p.links[i].v)] = true;
          }
        }
      }
      // Ban the root path's interior nodes so spur paths stay loopless.
      NodeId at = src;
      for (const LinkId id : root_path.links) {
        banned_nodes[static_cast<std::size_t>(at.v)] = true;
        at = g.link(id).dst;
      }

      auto spur = dijkstra(g, spur_node, dst, unit, banned_links,
                           banned_nodes);
      if (spur) {
        Path total;
        total.plane = prev.plane;
        total.links = root_path.links;
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        const bool known =
            std::find(result.begin(), result.end(), total) != result.end();
        if (!known) candidates.insert(std::move(total));
      }

      if (i < prev.links.size()) {
        root_path.links.push_back(prev.links[i]);
        spur_node = g.link(prev.links[i]).dst;
      }
    }

    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::vector<Path> ksp_across_planes(const topo::ParallelNetwork& net,
                                    HostId src, HostId dst, int k,
                                    std::uint64_t tiebreak_seed,
                                    int total_cap, const PlaneBans* bans) {
  if (total_cap <= 0) total_cap = k;
  // (hops, rank within plane, plane, path): sorting by this tuple yields
  // globally shortest first with round-robin across planes at equal length.
  std::vector<std::tuple<int, int, int>> order;
  std::vector<Path> pool;

  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    LinkWeights jitter;
    if (tiebreak_seed != 0) {
      jitter = jittered_unit_weights(
          g, tiebreak_seed + static_cast<std::uint64_t>(p) * 0x1F3D5B79ULL);
    }
    auto paths = k_shortest_paths(g, net.host_node(p, src),
                                  net.host_node(p, dst), k,
                                  tiebreak_seed != 0 ? &jitter : nullptr,
                                  detail::plane_bans(bans, p));
    for (std::size_t rank = 0; rank < paths.size(); ++rank) {
      paths[rank].plane = p;
      order.emplace_back(paths[rank].hops(), static_cast<int>(rank), p);
      pool.push_back(std::move(paths[rank]));
    }
  }

  std::vector<std::size_t> index(pool.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
    return order[a] < order[b];
  });

  std::vector<Path> out;
  out.reserve(static_cast<std::size_t>(total_cap));
  for (std::size_t i = 0;
       i < index.size() && static_cast<int>(out.size()) < total_cap; ++i) {
    out.push_back(std::move(pool[index[i]]));
  }
  return out;
}

}  // namespace reference

/// A diamond with a long detour:
///   s - a - t,  s - b - t,  s - c - d - t
Graph diamond(std::vector<NodeId>& nodes) {
  Graph g;
  for (int i = 0; i < 6; ++i) nodes.push_back(g.add_node(NodeKind::kSwitch));
  auto [s, a, b, t, c, d] = std::tuple{nodes[0], nodes[1], nodes[2],
                                       nodes[3], nodes[4], nodes[5]};
  g.add_duplex_link(s, a, 1, 1);
  g.add_duplex_link(a, t, 1, 1);
  g.add_duplex_link(s, b, 1, 1);
  g.add_duplex_link(b, t, 1, 1);
  g.add_duplex_link(s, c, 1, 1);
  g.add_duplex_link(c, d, 1, 1);
  g.add_duplex_link(d, t, 1, 1);
  return g;
}

TEST(Bfs, DistancesOnDiamond) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto dist = bfs_hops(g, n[0]);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[0].v)], 0);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[1].v)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[3].v)], 2);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[5].v)], 2);
}

TEST(Bfs, HostsDoNotTransit) {
  // h1 - sw1 - h2: h2 reachable. h1 - h2 - h3 chain: h3 unreachable via h2.
  Graph g;
  const NodeId h1 = g.add_node(NodeKind::kHost, HostId{0});
  const NodeId h2 = g.add_node(NodeKind::kHost, HostId{1});
  const NodeId h3 = g.add_node(NodeKind::kHost, HostId{2});
  g.add_duplex_link(h1, h2, 1, 1);
  g.add_duplex_link(h2, h3, 1, 1);
  const auto dist = bfs_hops(g, h1);
  EXPECT_EQ(dist[static_cast<std::size_t>(h2.v)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(h3.v)], kUnreachable);
}

TEST(ShortestPath, FindsTwoHopPath) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto path = shortest_path(g, n[0], n[3]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2);
  EXPECT_TRUE(is_valid_path(g, *path, n[0], n[3]));
}

TEST(ShortestPath, ReturnsNulloptWhenDisconnected) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch);
  const NodeId b = g.add_node(NodeKind::kSwitch);
  EXPECT_FALSE(shortest_path(g, a, b).has_value());
}

TEST(Dijkstra, RespectsWeights) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  // Penalize the two short branches; the 3-hop detour becomes cheapest.
  LinkWeights w(static_cast<std::size_t>(g.num_links()), 1.0);
  for (int l = 0; l < g.num_links(); ++l) {
    const auto& link = g.link(LinkId{l});
    const bool via_detour = link.src == n[4] || link.dst == n[4] ||
                            link.src == n[5] || link.dst == n[5];
    if (!via_detour) w[static_cast<std::size_t>(l)] = 10.0;
  }
  const auto path = dijkstra(g, n[0], n[3], w);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 3);
}

TEST(Dijkstra, BannedLinksAndNodes) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const LinkWeights unit(static_cast<std::size_t>(g.num_links()), 1.0);
  std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));
  banned_nodes[static_cast<std::size_t>(n[1].v)] = true;  // ban a
  banned_nodes[static_cast<std::size_t>(n[2].v)] = true;  // ban b
  const auto path = dijkstra(g, n[0], n[3], unit, {}, banned_nodes);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 3);  // forced onto the detour

  std::vector<bool> all_banned(static_cast<std::size_t>(g.num_links()), true);
  EXPECT_FALSE(dijkstra(g, n[0], n[3], unit, all_banned).has_value());
}

TEST(Dijkstra, HostsNeverTransitEvenWhenCheaper) {
  // hs - s1 ==(10)== s2 - hd, with host hx wired to both switches: the
  // detour s1 - hx - s2 costs 2 against the direct cable's 10, but a host
  // forwards nothing.
  Graph g;
  const NodeId hs = g.add_node(NodeKind::kHost, HostId{0});
  const NodeId hd = g.add_node(NodeKind::kHost, HostId{1});
  const NodeId hx = g.add_node(NodeKind::kHost, HostId{2});
  const NodeId s1 = g.add_node(NodeKind::kSwitch);
  const NodeId s2 = g.add_node(NodeKind::kSwitch);
  g.add_duplex_link(hs, s1, 1, 1);
  const LinkId direct = g.add_duplex_link(s1, s2, 1, 1);
  g.add_duplex_link(s2, hd, 1, 1);
  g.add_duplex_link(s1, hx, 1, 1);
  g.add_duplex_link(hx, s2, 1, 1);
  const LinkId hs_hd = g.add_duplex_link(hs, hd, 1, 1);
  LinkWeights w(static_cast<std::size_t>(g.num_links()), 1.0);
  w[static_cast<std::size_t>(direct.v)] = 10.0;
  w[static_cast<std::size_t>(direct.v ^ 1)] = 10.0;
  // Make the hs - hd cable too dear to matter for the first search.
  w[static_cast<std::size_t>(hs_hd.v)] = 100.0;
  w[static_cast<std::size_t>(hs_hd.v ^ 1)] = 100.0;

  const auto path = dijkstra(g, hs, hd, w);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(is_valid_path(g, *path, hs, hd));
  EXPECT_EQ(path->hops(), 3);
  for (const LinkId id : path->links) {
    EXPECT_NE(g.link(id).src, hx);
    EXPECT_NE(g.link(id).dst, hx);
  }
  // The same search between the switches also refuses the host detour.
  const auto s1_s2 = dijkstra(g, s1, s2, w);
  ASSERT_TRUE(s1_s2.has_value());
  EXPECT_EQ(s1_s2->links, std::vector<LinkId>{direct});

  // A destination host adjacent to the source still resolves, from a
  // switch and from a host.
  const auto to_hx = dijkstra(g, s1, hx, w);
  ASSERT_TRUE(to_hx.has_value());
  EXPECT_EQ(to_hx->hops(), 1);
  EXPECT_EQ(g.link(to_hx->links.front()).dst, hx);
  const auto host_to_host = dijkstra(g, hd, hs, w);
  ASSERT_TRUE(host_to_host.has_value());
  EXPECT_EQ(host_to_host->hops(), 3);
  std::vector<bool> fabric_cut(static_cast<std::size_t>(g.num_links()));
  fabric_cut[static_cast<std::size_t>(direct.v)] = true;
  fabric_cut[static_cast<std::size_t>(direct.v ^ 1)] = true;
  const auto adjacent = dijkstra(g, hs, hd, w, fabric_cut);
  ASSERT_TRUE(adjacent.has_value());
  EXPECT_EQ(adjacent->links, std::vector<LinkId>{hs_hd});

  // A banned destination has no path, host or not.
  std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));
  banned_nodes[static_cast<std::size_t>(hd.v)] = true;
  EXPECT_FALSE(dijkstra(g, hs, hd, w, {}, banned_nodes).has_value());
  banned_nodes[static_cast<std::size_t>(hd.v)] = false;
  banned_nodes[static_cast<std::size_t>(s2.v)] = true;
  EXPECT_FALSE(dijkstra(g, s1, s2, w, {}, banned_nodes).has_value());
}

TEST(Dijkstra, ReusedWorkspaceMatchesFreshSearches) {
  topo::JellyfishConfig config;
  config.num_switches = 12;
  config.network_degree = 3;
  config.hosts_per_switch = 2;
  const auto jf = build_jellyfish(config);
  const Graph& g = jf.graph;
  const LinkWeights w = jittered_unit_weights(g, 9);
  Rng rng(3);
  SearchWorkspace ws;
  for (int i = 0; i < 50; ++i) {
    const NodeId src = jf.host_nodes[rng.next_below(jf.host_nodes.size())];
    const NodeId dst = jf.host_nodes[rng.next_below(jf.host_nodes.size())];
    std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));
    banned_nodes[static_cast<std::size_t>(
        jf.switch_nodes[rng.next_below(jf.switch_nodes.size())].v)] = true;
    const auto fresh = reference::dijkstra(g, src, dst, w, {}, banned_nodes);
    const auto reused = dijkstra(g, src, dst, w.data(), {}, banned_nodes, ws);
    ASSERT_EQ(fresh.has_value(), reused.has_value()) << "search " << i;
    if (fresh) {
      EXPECT_EQ(fresh->links, reused->links) << "search " << i;
    }
  }
}

TEST(Yen, DiamondEnumeratesAllPathsInOrder) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto paths = k_shortest_paths(g, n[0], n[3], 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].hops(), 2);
  EXPECT_EQ(paths[1].hops(), 2);
  EXPECT_EQ(paths[2].hops(), 3);
  std::set<std::vector<LinkId>> distinct;
  for (const auto& p : paths) {
    EXPECT_TRUE(is_valid_path(g, p, n[0], n[3]));
    EXPECT_TRUE(distinct.insert(p.links).second);
  }
}

TEST(Yen, KBoundsResultCount) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  EXPECT_EQ(k_shortest_paths(g, n[0], n[3], 2).size(), 2u);
  EXPECT_EQ(k_shortest_paths(g, n[0], n[3], 0).size(), 0u);
}

/// Brute-force loopless path enumeration for cross-checking Yen.
void enumerate_all(const Graph& g, NodeId at, NodeId dst,
                   std::vector<bool>& visited, Path& current,
                   std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(current);
    return;
  }
  if (g.is_host(at) && !current.links.empty()) return;
  for (LinkId id : g.out_links(at)) {
    const NodeId v = g.link(id).dst;
    if (visited[static_cast<std::size_t>(v.v)]) continue;
    visited[static_cast<std::size_t>(v.v)] = true;
    current.links.push_back(id);
    enumerate_all(g, v, dst, visited, current, out);
    current.links.pop_back();
    visited[static_cast<std::size_t>(v.v)] = false;
  }
}

class YenVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YenVsBruteForce, MatchesOnRandomJellyfish) {
  topo::JellyfishConfig config;
  config.num_switches = 10;
  config.network_degree = 3;
  config.hosts_per_switch = 1;
  config.seed = GetParam();
  const auto jf = build_jellyfish(config);
  const Graph& g = jf.graph;
  const NodeId src = jf.host_nodes.front();
  const NodeId dst = jf.host_nodes.back();

  std::vector<Path> all;
  std::vector<bool> visited(static_cast<std::size_t>(g.num_nodes()), false);
  visited[static_cast<std::size_t>(src.v)] = true;
  Path current;
  enumerate_all(g, src, dst, visited, current, all);
  std::sort(all.begin(), all.end(), [](const Path& a, const Path& b) {
    return a.hops() < b.hops();
  });

  constexpr int kK = 12;
  const auto yen = k_shortest_paths(g, src, dst, kK);
  const std::size_t expect = std::min<std::size_t>(all.size(), kK);
  ASSERT_EQ(yen.size(), expect);
  // Hop-count multiset of the K shortest must match the brute force one.
  for (std::size_t i = 0; i < yen.size(); ++i) {
    EXPECT_EQ(yen[i].hops(), all[i].hops()) << "position " << i;
    EXPECT_TRUE(is_valid_path(g, yen[i], src, dst));
  }
  // All returned paths are distinct.
  std::set<std::vector<LinkId>> distinct;
  for (const auto& p : yen) EXPECT_TRUE(distinct.insert(p.links).second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenVsBruteForce,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));


/// (plane, link ids) per path: what gtest prints when two path lists
/// differ.
std::vector<std::pair<int, std::vector<std::int32_t>>> link_sequences(
    const std::vector<Path>& paths) {
  std::vector<std::pair<int, std::vector<std::int32_t>>> out;
  for (const Path& p : paths) {
    std::vector<std::int32_t> ids;
    for (const LinkId id : p.links) ids.push_back(id.v);
    out.emplace_back(p.plane, std::move(ids));
  }
  return out;
}

/// Bans both directions of about `percent`% of the cables, drawn from `rng`.
std::vector<bool> random_cable_bans(const Graph& g, Rng& rng, int percent) {
  std::vector<bool> banned(static_cast<std::size_t>(g.num_links()), false);
  for (int l = 0; l < g.num_links(); l += 2) {
    if (rng.next_below(100) < static_cast<std::uint64_t>(percent)) {
      banned[static_cast<std::size_t>(l)] = true;
      banned[static_cast<std::size_t>(l + 1)] = true;
    }
  }
  return banned;
}

struct ReferenceFabric {
  std::string name;
  Graph graph;
  std::vector<NodeId> hosts;
};

/// Small Jellyfish, fat-tree and Xpander planes: big enough for many
/// equal-hop ties and K = 12 distinct paths, small enough to sweep fast.
std::vector<ReferenceFabric> reference_fabrics() {
  std::vector<ReferenceFabric> out;
  {
    topo::JellyfishConfig config;
    config.num_switches = 16;
    config.network_degree = 4;
    config.hosts_per_switch = 2;
    config.seed = 5;
    auto jf = topo::build_jellyfish(config);
    out.push_back({"jellyfish", std::move(jf.graph), jf.host_nodes});
  }
  {
    topo::FatTreeConfig config;
    config.k = 4;
    auto ft = topo::build_fat_tree(config);
    out.push_back({"fat_tree", std::move(ft.graph), ft.host_nodes});
  }
  {
    topo::XpanderConfig config;
    config.network_degree = 3;
    config.lift = 4;
    config.hosts_per_switch = 2;
    config.seed = 7;
    auto xp = topo::build_xpander(config);
    out.push_back({"xpander", std::move(xp.graph), xp.host_nodes});
  }
  return out;
}

TEST(YenReference, SamePathsInSameOrderAsReference) {
  Rng rng(2024);
  int compared = 0;
  for (const ReferenceFabric& f : reference_fabrics()) {
    const Graph& g = f.graph;
    const auto hosts = static_cast<std::uint64_t>(f.hosts.size());
    for (const bool jittered : {false, true}) {
      const LinkWeights jitter = jittered_unit_weights(g, rng.next_u64());
      const LinkWeights* weights = jittered ? &jitter : nullptr;
      for (const bool with_bans : {false, true}) {
        std::vector<bool> bans;
        if (with_bans) {
          bans = random_cable_bans(g, rng, 10);
          // Cut the last host off entirely: a disconnected pair.
          for (const LinkId id : g.out_links(f.hosts.back())) {
            bans[static_cast<std::size_t>(id.v)] = true;
            bans[static_cast<std::size_t>(id.v ^ 1)] = true;
          }
        }
        const std::vector<bool>* base = with_bans ? &bans : nullptr;
        std::vector<std::pair<NodeId, NodeId>> pairs = {
            {f.hosts.front(), f.hosts.front()},  // src == dst
            {f.hosts.front(), f.hosts.back()},
        };
        for (int i = 0; i < 10; ++i) {
          pairs.emplace_back(f.hosts[rng.next_below(hosts)],
                             f.hosts[rng.next_below(hosts)]);
        }
        for (const auto& [src, dst] : pairs) {
          for (int k = 1; k <= 12; ++k) {
            const auto expect =
                reference::k_shortest_paths(g, src, dst, k, weights, base);
            const auto got = k_shortest_paths(g, src, dst, k, weights, base);
            ASSERT_EQ(link_sequences(got), link_sequences(expect))
                << f.name << " jittered=" << jittered
                << " bans=" << with_bans << " src=" << src.v
                << " dst=" << dst.v << " k=" << k;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 3 * 2 * 2 * 12 * 12);
}

TEST(YenReference, YenSearchYieldsReferencePathsOneAtATime) {
  Rng rng(31);
  constexpr int kMaxK = 12;
  int compared = 0;
  for (const ReferenceFabric& f : reference_fabrics()) {
    const Graph& g = f.graph;
    const auto hosts = static_cast<std::uint64_t>(f.hosts.size());
    for (const bool jittered : {false, true}) {
      const LinkWeights jitter = jittered_unit_weights(g, rng.next_u64());
      const LinkWeights* weights = jittered ? &jitter : nullptr;
      for (const bool with_bans : {false, true}) {
        std::vector<bool> bans;
        if (with_bans) {
          bans = random_cable_bans(g, rng, 10);
          for (const LinkId id : g.out_links(f.hosts.back())) {
            bans[static_cast<std::size_t>(id.v)] = true;
            bans[static_cast<std::size_t>(id.v ^ 1)] = true;
          }
        }
        const std::vector<bool>* base = with_bans ? &bans : nullptr;
        std::vector<std::pair<NodeId, NodeId>> pairs = {
            {f.hosts.front(), f.hosts.front()},
            {f.hosts.front(), f.hosts.back()},
        };
        for (int i = 0; i < 6; ++i) {
          pairs.emplace_back(f.hosts[rng.next_below(hosts)],
                             f.hosts[rng.next_below(hosts)]);
        }
        for (const auto& [src, dst] : pairs) {
          YenSearch search(g, src, dst, weights, base);
          std::vector<Path> yielded;
          for (int k = 1; k <= kMaxK; ++k) {
            if (const Path* next = search.next()) yielded.push_back(*next);
            const auto expect =
                reference::k_shortest_paths(g, src, dst, k, weights, base);
            ASSERT_EQ(link_sequences(yielded), link_sequences(expect))
                << f.name << " jittered=" << jittered
                << " bans=" << with_bans << " src=" << src.v
                << " dst=" << dst.v << " k=" << k;
            ASSERT_EQ(link_sequences(search.paths()), link_sequences(expect));
            ++compared;
          }
          if (static_cast<int>(yielded.size()) < kMaxK) {
            // Drained: stays drained and keeps what it yielded.
            EXPECT_EQ(search.next(), nullptr);
            EXPECT_EQ(search.next(), nullptr);
            EXPECT_EQ(search.paths().size(), yielded.size());
          }
          for (std::size_t r = 1; r < yielded.size(); ++r) {
            EXPECT_LE(yielded[r - 1].hops(), yielded[r].hops());
          }
          EXPECT_EQ(link_sequences(search.take_paths()),
                    link_sequences(yielded));
          EXPECT_EQ(search.next(), nullptr);
        }
      }
    }
  }
  EXPECT_EQ(compared, 3 * 2 * 2 * 8 * kMaxK);
}

TEST(YenReference, KspAcrossPlanesMatchesReference) {
  Rng rng(77);
  int compared = 0;
  for (const auto kind : {topo::TopoKind::kJellyfish, topo::TopoKind::kFatTree,
                          topo::TopoKind::kXpander}) {
    for (int planes = 1; planes <= 4; ++planes) {
      topo::NetworkSpec spec;
      spec.topo = kind;
      spec.type = topo::NetworkType::kParallelHeterogeneous;
      spec.hosts = 32;
      spec.parallelism = planes;
      spec.seed = 11;
      const auto net = build_network(spec);
      ASSERT_EQ(net.num_planes(), planes);
      const auto hosts = static_cast<std::uint64_t>(net.num_hosts());
      // The last host is cut off in the last plane: with bans, its pairs
      // are disconnected there and connected elsewhere.
      const HostId cut{static_cast<std::int32_t>(hosts - 1)};
      PlaneBans bans(static_cast<std::size_t>(planes));
      for (int p = 0; p < planes; ++p) {
        const Graph& g = net.plane(p).graph;
        auto& mask = bans[static_cast<std::size_t>(p)];
        mask = random_cable_bans(g, rng, 8);
        if (p != planes - 1) continue;
        for (const LinkId id : g.out_links(net.host_node(p, cut))) {
          mask[static_cast<std::size_t>(id.v)] = true;
          mask[static_cast<std::size_t>(id.v ^ 1)] = true;
        }
      }
      std::vector<std::pair<HostId, HostId>> pairs = {
          {HostId{0}, HostId{0}},  // src == dst
          {HostId{0}, cut},
      };
      for (int i = 0; i < 3; ++i) {
        pairs.emplace_back(
            HostId{static_cast<std::int32_t>(rng.next_below(hosts))},
            HostId{static_cast<std::int32_t>(rng.next_below(hosts))});
      }
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [src, dst] = pairs[i];
        const std::uint64_t seed = i % 2 == 0 ? 0 : mix64(rng.next_u64());
        for (int k = 1; k <= 12; ++k) {
          for (const int cap : {0, 1, k, k + 1, 2 * k, k * planes}) {
            for (const PlaneBans* b :
                 {static_cast<const PlaneBans*>(nullptr),
                  static_cast<const PlaneBans*>(&bans)}) {
              ASSERT_EQ(link_sequences(
                            ksp_across_planes(net, src, dst, k, seed, cap, b)),
                        link_sequences(reference::ksp_across_planes(
                            net, src, dst, k, seed, cap, b)))
                  << "topo=" << static_cast<int>(kind) << " N=" << planes
                  << " src=" << src.v << " dst=" << dst.v << " k=" << k
                  << " cap=" << cap << " seed=" << seed
                  << " bans=" << (b != nullptr);
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 3 * 4 * 5 * 12 * 6 * 2);
}

TEST(Ecmp, FatTreeInterPodPathCount) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  // Hosts in different pods have (k/2)^2 = 4 equal-cost 6-link paths.
  const NodeId src = ft.host_nodes.front();
  const NodeId dst = ft.host_nodes.back();
  const auto paths = enumerate_shortest_paths(ft.graph, src, dst);
  EXPECT_EQ(paths.size(), 4u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 6);  // host-edge-agg-core-agg-edge-host
    EXPECT_TRUE(is_valid_path(ft.graph, p, src, dst));
  }
}

TEST(Ecmp, SameRackSinglePath) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  const auto paths =
      enumerate_shortest_paths(ft.graph, ft.host_nodes[0], ft.host_nodes[1]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops(), 2);
}

TEST(Ecmp, SamePodPathCount) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  // Same pod, different rack: k/2 = 2 paths of 4 links.
  const auto paths =
      enumerate_shortest_paths(ft.graph, ft.host_nodes[0], ft.host_nodes[2]);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) EXPECT_EQ(p.hops(), 4);
}

TEST(Ecmp, CapLimitsEnumeration) {
  topo::FatTreeConfig config;
  config.k = 8;
  const auto ft = build_fat_tree(config);
  const auto paths = enumerate_shortest_paths(
      ft.graph, ft.host_nodes.front(), ft.host_nodes.back(), 5);
  EXPECT_EQ(paths.size(), 5u);
}

TEST(Ecmp, PickIsStableAndBalanced) {
  EXPECT_EQ(ecmp_pick(123, 8), ecmp_pick(123, 8));
  std::vector<int> counts(8, 0);
  for (std::uint64_t f = 0; f < 8000; ++f) {
    ++counts[static_cast<std::size_t>(ecmp_pick(f, 8))];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(PlanePaths, KspAcrossPlanesInterleavesHomogeneousPlanes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);

  const auto paths = ksp_across_planes(net, HostId{0}, HostId{15}, 8);
  ASSERT_EQ(paths.size(), 8u);
  int in_plane0 = 0;
  int in_plane1 = 0;
  for (const auto& p : paths) {
    (p.plane == 0 ? in_plane0 : in_plane1)++;
    EXPECT_TRUE(is_valid_path(net.plane(p.plane).graph,
                              p, net.host_node(p.plane, HostId{0}),
                              net.host_node(p.plane, HostId{15})));
  }
  // Identical planes, equal hop counts -> perfectly even split.
  EXPECT_EQ(in_plane0, 4);
  EXPECT_EQ(in_plane1, 4);
}

TEST(PlanePaths, KspSortedByHops) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 42;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  const auto paths = ksp_across_planes(net, HostId{0}, HostId{41}, 16);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].hops(), paths[i].hops());
  }
}

TEST(PlanePaths, ShortestPerPlaneSortedAndOnePerPlane) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 42;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  const auto paths = shortest_per_plane(net, HostId{0}, HostId{41});
  ASSERT_EQ(paths.size(), 4u);
  std::set<int> planes;
  for (const auto& p : paths) planes.insert(p.plane);
  EXPECT_EQ(planes.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].hops(), paths[i].hops());
  }
}

TEST(PlanePaths, HeterogeneousMinHopsNeverWorseThanPlaneZero) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 98;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  for (int h = 1; h < 20; ++h) {
    const auto paths = shortest_per_plane(net, HostId{0}, HostId{h * 4});
    ASSERT_FALSE(paths.empty());
    int plane0_hops = -1;
    for (const auto& p : paths) {
      if (p.plane == 0) plane0_hops = p.hops();
    }
    ASSERT_GE(plane0_hops, 0);
    EXPECT_LE(paths.front().hops(), plane0_hops);
  }
}

TEST(PlanePaths, EcmpPathsCarryPlaneIndex) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);
  const auto paths = ecmp_paths_in_plane(net, 1, HostId{0}, HostId{15});
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) EXPECT_EQ(p.plane, 1);
}

TEST(Path, EmptyPathAccessorsAreSafe) {
  // Empty paths occur legitimately (e.g. a partitioned plane after faults);
  // src()/dst() must return the invalid id instead of reading front()/back()
  // of an empty vector.
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const Path empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.hops(), 0);
  EXPECT_FALSE(empty.src(g).valid());
  EXPECT_FALSE(empty.dst(g).valid());
  EXPECT_EQ(empty.latency(g), 0);

  const PathView view(empty);
  EXPECT_TRUE(view.empty());
  EXPECT_FALSE(view.src(g).valid());
  EXPECT_FALSE(view.dst(g).valid());
  EXPECT_EQ(view.latency(g), 0);
}

TEST(RouteTable, InternDedupsAndViewsMatch) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto p1 = shortest_path(g, n[0], n[3]);
  ASSERT_TRUE(p1.has_value());

  RouteTable table;
  const PathRef a = table.intern(*p1);
  const PathRef b = table.intern(*p1);  // identical content
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.num_paths(), 1u);
  EXPECT_EQ(table.links_stored(), p1->links.size());

  const PathView view = table.view(a);
  EXPECT_EQ(view.hops(), p1->hops());
  EXPECT_EQ(view.plane(), p1->plane);
  EXPECT_TRUE(std::equal(view.links().begin(), view.links().end(),
                         p1->links.begin(), p1->links.end()));
  EXPECT_EQ(view.src(g), n[0]);
  EXPECT_EQ(view.dst(g), n[3]);
  EXPECT_EQ(view.latency(g), p1->latency(g));
  EXPECT_EQ(view.materialize(), *p1);
}

TEST(RouteTable, PlaneDistinguishesEqualLinkSequences) {
  Path p;
  p.links = {LinkId{0}, LinkId{2}};
  RouteTable table;
  p.plane = 0;
  const PathRef a = table.intern(p);
  p.plane = 1;
  const PathRef b = table.intern(p);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.num_paths(), 2u);
  EXPECT_EQ(table.view(a).plane(), 0);
  EXPECT_EQ(table.view(b).plane(), 1);
}

TEST(RouteTable, EmptyPathInternsWithoutAllocating) {
  RouteTable table;
  Path empty;
  empty.plane = 3;
  const PathRef ref = table.intern(empty);
  EXPECT_EQ(ref.len, 0u);
  const PathView view = table.view(ref);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.plane(), 3);
  EXPECT_EQ(table.arena_bytes(), 0u);
  EXPECT_EQ(table.intern(empty), ref);  // the dedup probe reads no slab

  // Fill the first slab exactly, so the next free slot is one past the
  // last slab: an empty path interned there must still take no slab.
  Path p;
  for (int i = 0; i < (1 << 16) / 16; ++i) {
    p.links.assign(16, LinkId{i});
    table.intern(p);
  }
  const std::size_t one_slab = table.arena_bytes();
  EXPECT_GT(one_slab, 0u);
  Path boundary;
  boundary.plane = 1;
  const PathRef at_boundary = table.intern(boundary);
  EXPECT_TRUE(table.view(at_boundary).empty());
  EXPECT_EQ(table.view(at_boundary).plane(), 1);
  EXPECT_EQ(table.intern(boundary), at_boundary);
  EXPECT_EQ(table.arena_bytes(), one_slab);
  // The next real path opens the second slab.
  p.links.assign(3, LinkId{1 << 20});
  EXPECT_EQ(table.view(table.intern(p)).hops(), 3);
  EXPECT_EQ(table.arena_bytes(), 2 * one_slab);
}

TEST(RouteTable, ManyPathsSurviveSlabGrowth) {
  // Enough distinct paths to cross several 64K-link slabs; earlier refs
  // must stay resolvable (slabs never move).
  RouteTable table;
  std::vector<PathRef> refs;
  Path p;
  for (int i = 0; i < 40'000; ++i) {
    p.links.assign(5, LinkId{i});
    refs.push_back(table.intern(p));
  }
  EXPECT_GT(table.arena_bytes(), std::size_t{64} * 1024 * sizeof(LinkId));
  for (int i = 0; i < 40'000; i += 997) {
    const PathView view = table.view(refs[static_cast<std::size_t>(i)]);
    ASSERT_EQ(view.hops(), 5);
    EXPECT_EQ(view.links().front(), LinkId{i});
  }
}

TEST(BannedLinks, BfsAndShortestPathRouteAround) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  // Ban s-a (both directions): s->t must go via b (still 2 hops), and a is
  // only reachable the long way round through t.
  std::vector<bool> banned(static_cast<std::size_t>(g.num_links()), false);
  banned[0] = banned[1] = true;  // first duplex pair: s<->a
  const auto dist = bfs_hops(g, n[0], &banned);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[1].v)], 3);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[3].v)], 2);

  const auto path = shortest_path(g, n[0], n[3], &banned);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2);
  EXPECT_EQ(g.link(path->links.front()).dst, n[2]);  // via b
}

TEST(BannedLinks, EcmpEnumerationSkipsBannedPaths) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto all = enumerate_shortest_paths(g, n[0], n[3]);
  ASSERT_EQ(all.size(), 2u);  // via a and via b

  std::vector<bool> banned(static_cast<std::size_t>(g.num_links()), false);
  banned[0] = banned[1] = true;  // ban s<->a
  const auto constrained =
      enumerate_shortest_paths(g, n[0], n[3], 256, &banned);
  ASSERT_EQ(constrained.size(), 1u);
  EXPECT_EQ(g.link(constrained.front().links.front()).dst, n[2]);
}

TEST(BannedLinks, YenBaseMaskExcludesLinkFromEveryPath) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  std::vector<bool> banned(static_cast<std::size_t>(g.num_links()), false);
  banned[0] = banned[1] = true;  // ban s<->a
  const auto paths = k_shortest_paths(g, n[0], n[3], 4, nullptr, &banned);
  // Without the ban: 3 paths (via a, via b, via c-d). With it: 2.
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    for (LinkId id : p.links) {
      EXPECT_FALSE(banned[static_cast<std::size_t>(id.v)]);
    }
  }
}

TEST(BannedLinks, PlaneBansApplyPerPlane) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);

  const auto base = ecmp_paths_in_plane(net, 0, HostId{0}, HostId{15});
  ASSERT_FALSE(base.empty());
  // Ban plane 0's first path's first fabric link (and its twin) — plane 0
  // loses at least that path while plane 1 is untouched.
  const LinkId victim = base.front().links[1];
  PlaneBans bans(2);
  bans[0].assign(
      static_cast<std::size_t>(net.plane(0).graph.num_links()), false);
  bans[0][static_cast<std::size_t>(victim.v)] = true;
  bans[0][static_cast<std::size_t>(victim.v ^ 1)] = true;

  const auto p0 = ecmp_paths_in_plane(net, 0, HostId{0}, HostId{15}, 256,
                                      &bans);
  EXPECT_LT(p0.size(), base.size());
  for (const auto& p : p0) {
    for (LinkId id : p.links) EXPECT_NE(id, victim);
  }
  const auto p1 = ecmp_paths_in_plane(net, 1, HostId{0}, HostId{15}, 256,
                                      &bans);
  EXPECT_EQ(p1.size(), base.size());  // identical plane, no bans
}

}  // namespace
}  // namespace pnet::routing
