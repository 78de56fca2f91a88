#include "routing/plane_paths.hpp"

#include <algorithm>
#include <tuple>

#include "routing/ecmp.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"

namespace pnet::routing {

std::vector<Path> ksp_across_planes(const topo::ParallelNetwork& net,
                                    HostId src, HostId dst, int k,
                                    std::uint64_t tiebreak_seed,
                                    int total_cap, const PlaneBans* bans) {
  if (total_cap <= 0) total_cap = k;
  if (k <= 0) return {};
  const int planes = net.num_planes();
  std::vector<LinkWeights> jitter(static_cast<std::size_t>(planes));
  std::vector<YenSearch> searches;
  searches.reserve(static_cast<std::size_t>(planes));
  for (int p = 0; p < planes; ++p) {
    const topo::Graph& g = net.plane(p).graph;
    LinkWeights& w = jitter[static_cast<std::size_t>(p)];
    if (tiebreak_seed != 0) {
      w = jittered_unit_weights(
          g, tiebreak_seed + static_cast<std::uint64_t>(p) * 0x1F3D5B79ULL);
    }
    searches.emplace_back(g, net.host_node(p, src), net.host_node(p, dst),
                          tiebreak_seed != 0 ? &w : nullptr,
                          detail::plane_bans(bans, p));
    searches.back().next();
  }

  // Merge the plane heads on (hops, rank within plane, plane): globally
  // shortest first, round-robin across planes at equal length. A plane's
  // keys strictly increase (Yen never shortens), so the merge emits the
  // sorted order of all k paths per plane and the plane it took from is
  // the only one whose next path can be needed.
  std::vector<int> taken(static_cast<std::size_t>(planes), 0);
  std::vector<Path> out;
  out.reserve(static_cast<std::size_t>(total_cap));
  while (static_cast<int>(out.size()) < total_cap) {
    int best = -1;
    std::tuple<int, int, int> best_key;
    for (int p = 0; p < planes; ++p) {
      const auto& found = searches[static_cast<std::size_t>(p)].paths();
      const int rank = taken[static_cast<std::size_t>(p)];
      if (rank == static_cast<int>(found.size())) continue;  // drained
      const std::tuple<int, int, int> key{
          found[static_cast<std::size_t>(rank)].hops(), rank, p};
      if (best < 0 || key < best_key) {
        best = p;
        best_key = key;
      }
    }
    if (best < 0) break;
    YenSearch& search = searches[static_cast<std::size_t>(best)];
    const int rank = taken[static_cast<std::size_t>(best)]++;
    out.push_back(search.paths()[static_cast<std::size_t>(rank)]);
    out.back().plane = best;
    if (static_cast<int>(out.size()) < total_cap && rank + 1 < k) {
      search.next();
    }
  }
  return out;
}

std::vector<Path> shortest_per_plane(const topo::ParallelNetwork& net,
                                     HostId src, HostId dst,
                                     const PlaneBans* bans) {
  std::vector<Path> out;
  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    auto path = shortest_path(g, net.host_node(p, src),
                              net.host_node(p, dst),
                              detail::plane_bans(bans, p));
    if (path) {
      path->plane = p;
      out.push_back(std::move(*path));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    return a.hops() < b.hops();
  });
  return out;
}

std::vector<Path> ecmp_paths_in_plane(const topo::ParallelNetwork& net,
                                      int plane, HostId src, HostId dst,
                                      int cap, const PlaneBans* bans) {
  const topo::Graph& g = net.plane(plane).graph;
  auto paths = enumerate_shortest_paths(g, net.host_node(plane, src),
                                        net.host_node(plane, dst), cap,
                                        detail::plane_bans(bans, plane));
  for (auto& p : paths) p.plane = plane;
  return paths;
}

}  // namespace pnet::routing
