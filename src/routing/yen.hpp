// Yen's K-shortest loopless paths [Yen 1971], the KSP algorithm named by the
// paper (section 4: "MPTCP combined with K shortest paths routing").
//
// The metric is hop count (all fabric links weigh 1), matching Jellyfish and
// the paper's use; ties are broken deterministically by link id so results
// are reproducible across runs.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "routing/path.hpp"
#include "routing/shortest.hpp"

namespace pnet::routing {

/// Up to K loopless shortest paths from src to dst, sorted by (hops, lexico
/// link ids): the first K paths of a YenSearch. Fewer than K are returned
/// when the graph has fewer loopless paths.
///
/// `tiebreak_weights` (optional) perturbs the unit hop metric: pass weights
/// of the form 1 + tiny jitter to randomize WHICH equal-hop paths are
/// selected. Without it, the deterministic lexicographic tie-break
/// concentrates every flow's K paths on the same corner of an equal-cost-
/// rich fabric (e.g. the first two aggregation switches of a fat tree),
/// wasting most of the fabric.
///
/// `banned_links` (optional, indexed by LinkId::v) excludes failed links
/// from every search — the base mask a route cache applies when recomputing
/// after faults. Spur-node bans are layered on top of it.
std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights =
                                       nullptr,
                                   const std::vector<bool>* banned_links =
                                       nullptr);

/// Yen's search as a generator: next() computes one more path, so a
/// caller that may stop early (the cross-plane merge) pays only for the
/// paths it takes. k calls to next() yield exactly k_shortest_paths(..., k)
/// in the same order; hop counts never decrease from one path to the next.
///
/// The graph and `tiebreak_weights` must outlive the search (the weights
/// are read in place); `banned_links` is copied.
class YenSearch {
 public:
  YenSearch(const topo::Graph& g, NodeId src, NodeId dst,
            const LinkWeights* tiebreak_weights = nullptr,
            const std::vector<bool>* banned_links = nullptr);

  /// The next path, or nullptr once no further loopless path exists (and
  /// on every later call). The pointer is valid until the next call.
  const Path* next();

  /// Every path yielded so far, in order.
  [[nodiscard]] const std::vector<Path>& paths() const { return result_; }

  /// Moves the yielded paths out; the search is drained afterwards.
  std::vector<Path> take_paths();

 private:
  /// Orders candidates by (hops, lexicographic link ids): deterministic
  /// and consistent with the unit-weight metric.
  struct PathLess {
    bool operator()(const Path& a, const Path& b) const {
      if (a.hops() != b.hops()) return a.hops() < b.hops();
      return a.links < b.links;
    }
  };

  /// Adds the spur candidates of the newest path.
  void spur_from_last();

  const topo::Graph* g_;
  NodeId src_;
  NodeId dst_;
  // Null searches the unit metric.
  const double* weights_;
  bool drained_ = false;
  SearchWorkspace ws_;
  // Spur bans are layered on the caller's fault mask; `spur_banned_` lists
  // the links one spur added so exactly those are lifted again.
  std::vector<bool> banned_links_;
  std::vector<bool> banned_nodes_;
  std::vector<LinkId> spur_banned_;
  std::vector<Path> result_;
  std::set<Path, PathLess> candidates_;
  // Indices into `result_` of the paths sharing the newest path's first i
  // links (the root), and of those that also share its link i.
  std::vector<std::size_t> sharing_;
  std::vector<std::size_t> sharing_next_;
};

/// Jittered unit weights for randomized tie-breaking (1 + U[0, 1e-6)).
LinkWeights jittered_unit_weights(const topo::Graph& g, std::uint64_t seed);

}  // namespace pnet::routing
