#include "routing/yen.hpp"

#include <algorithm>
#include <set>

#include "routing/shortest.hpp"
#include "util/rng.hpp"

namespace pnet::routing {

namespace {

/// Orders candidate paths by (hops, lexicographic link ids): deterministic
/// and consistent with the unit-weight metric.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return a.links < b.links;
  }
};

}  // namespace

LinkWeights jittered_unit_weights(const topo::Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  LinkWeights weights(static_cast<std::size_t>(g.num_links()));
  for (auto& w : weights) w = 1.0 + rng.next_double() * 1e-6;
  return weights;
}

std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights,
                                   const std::vector<bool>* base_banned) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;

  // Null weights search the unit metric; the caller's jitter is read in
  // place.
  const double* weights =
      tiebreak_weights != nullptr ? tiebreak_weights->data() : nullptr;
  SearchWorkspace ws;
  // Spur bans are layered on the caller's fault mask; `spur_banned` lists
  // the links one spur added so exactly those are lifted again.
  std::vector<bool> banned_links =
      base_banned != nullptr && !base_banned->empty()
          ? *base_banned
          : std::vector<bool>(static_cast<std::size_t>(g.num_links()));
  std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));
  std::vector<LinkId> spur_banned;

  auto first = dijkstra(g, src, dst, weights, banned_links, banned_nodes, ws);
  if (!first) return result;
  result.push_back(std::move(*first));

  std::set<Path, PathLess> candidates;
  // Indices into `result` of the paths sharing prev's first i links (the
  // root), and of those that also share its link i. Found paths are
  // distinct, loopless and end at dst, so each one in `sharing` has a
  // link i.
  std::vector<std::size_t> sharing;
  std::vector<std::size_t> sharing_next;

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    sharing.resize(result.size());
    for (std::size_t j = 0; j < sharing.size(); ++j) sharing[j] = j;

    // Spur from every node of the previous path except the destination.
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      const LinkId next = prev.links[i];
      sharing_next.clear();
      for (const std::size_t j : sharing) {
        if (result[j].links[i] == next) sharing_next.push_back(j);
      }
      // Lawler's skip: when an earlier path also continues this root
      // through `next`, adding prev banned no new link here, so the bans
      // equal those of the last spur from this root and the search would
      // return a path already in `candidates` or `result`.
      if (sharing_next.size() == 1) {
        // Ban links that would recreate any already-found path sharing
        // this root.
        for (const std::size_t j : sharing) {
          const LinkId l = result[j].links[i];
          if (!banned_links[static_cast<std::size_t>(l.v)]) {
            banned_links[static_cast<std::size_t>(l.v)] = true;
            spur_banned.push_back(l);
          }
        }
        auto spur = dijkstra(g, spur_node, dst, weights, banned_links,
                             banned_nodes, ws);
        for (const LinkId l : spur_banned) {
          banned_links[static_cast<std::size_t>(l.v)] = false;
        }
        spur_banned.clear();
        if (spur) {
          Path total;
          total.plane = prev.plane;
          total.links.reserve(i + spur->links.size());
          total.links.assign(prev.links.begin(),
                             prev.links.begin() +
                                 static_cast<std::ptrdiff_t>(i));
          total.links.insert(total.links.end(), spur->links.begin(),
                             spur->links.end());
          const bool known =
              std::find(result.begin(), result.end(), total) != result.end();
          if (!known) candidates.insert(std::move(total));
        }
      }
      // Ban the root path's interior nodes so spur paths stay loopless.
      banned_nodes[static_cast<std::size_t>(spur_node.v)] = true;
      spur_node = g.link(next).dst;
      sharing.swap(sharing_next);
    }
    banned_nodes[static_cast<std::size_t>(src.v)] = false;
    for (const LinkId id : prev.links) {
      banned_nodes[static_cast<std::size_t>(g.link(id).dst.v)] = false;
    }

    if (candidates.empty()) break;
    result.push_back(std::move(candidates.extract(candidates.begin()).value()));
  }
  return result;
}

}  // namespace pnet::routing
