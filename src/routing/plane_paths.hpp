// Cross-plane path computation for P-Nets.
//
// The paper's key forwarding mechanism (section 4): compute K shortest paths
// per dataplane, then keep the K globally shortest, so subflows naturally
// concentrate on planes that happen to offer shorter paths (the source of
// the heterogeneous latency win) while still spreading across planes at
// equal hop counts.
#pragma once

#include <vector>

#include "routing/path.hpp"
#include "topo/parallel.hpp"

namespace pnet::routing {

/// Per-plane banned-link masks (outer index: plane; inner index: LinkId::v
/// within that plane). nullptr / empty inner vectors mean "no bans". Used by
/// the route cache to recompute entries around failed links.
using PlaneBans = std::vector<std::vector<bool>>;

namespace detail {
/// Plane p's mask, or nullptr when absent/empty.
inline const std::vector<bool>* plane_bans(const PlaneBans* bans, int p) {
  if (bans == nullptr) return nullptr;
  const auto& mask = (*bans)[static_cast<std::size_t>(p)];
  return mask.empty() ? nullptr : &mask;
}
}  // namespace detail

/// K globally-shortest loopless paths between two hosts across all planes.
/// At equal hop count, planes are interleaved round-robin (rank within the
/// plane first, then plane index) so homogeneous P-Nets spread evenly.
/// `tiebreak_seed` != 0 randomizes which equal-hop paths Yen selects inside
/// each plane (vary it per flow on equal-cost-rich fabrics like fat trees —
/// see yen.hpp).
/// `total_cap` bounds the merged result (0 means k); pass k * num_planes to
/// keep every per-plane candidate, e.g. so a failure-aware selector can
/// re-filter by plane without recomputing.
/// Each plane's Yen runs only as far as the merge needs it: one path per
/// plane plus one per path handed out, at most k per plane, so a cap of k
/// computes at most k + N - 1 paths where a cap of k * N computes them all.
/// The result equals sorting all k paths of every plane and cutting to the
/// cap.
std::vector<Path> ksp_across_planes(const topo::ParallelNetwork& net,
                                    HostId src, HostId dst, int k,
                                    std::uint64_t tiebreak_seed = 0,
                                    int total_cap = 0,
                                    const PlaneBans* bans = nullptr);

/// One shortest path per plane, sorted globally by hop count (shortest-plane
/// first). Used by the "low-latency" single-path interface of section 3.4.
std::vector<Path> shortest_per_plane(const topo::ParallelNetwork& net,
                                     HostId src, HostId dst,
                                     const PlaneBans* bans = nullptr);

/// Equal-cost shortest paths within one plane (plane field filled in).
std::vector<Path> ecmp_paths_in_plane(const topo::ParallelNetwork& net,
                                      int plane, HostId src, HostId dst,
                                      int cap = 256,
                                      const PlaneBans* bans = nullptr);

}  // namespace pnet::routing
