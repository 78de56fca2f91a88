#include "routing/yen.hpp"

#include <algorithm>
#include <optional>

#include "routing/shortest.hpp"
#include "util/rng.hpp"

namespace pnet::routing {

LinkWeights jittered_unit_weights(const topo::Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  LinkWeights weights(static_cast<std::size_t>(g.num_links()));
  for (auto& w : weights) w = 1.0 + rng.next_double() * 1e-6;
  return weights;
}

YenSearch::YenSearch(const topo::Graph& g, NodeId src, NodeId dst,
                     const LinkWeights* tiebreak_weights,
                     const std::vector<bool>* banned_links)
    : g_(&g),
      src_(src),
      dst_(dst),
      weights_(tiebreak_weights != nullptr ? tiebreak_weights->data()
                                           : nullptr),
      banned_links_(banned_links != nullptr && !banned_links->empty()
                        ? *banned_links
                        : std::vector<bool>(
                              static_cast<std::size_t>(g.num_links()))),
      banned_nodes_(static_cast<std::size_t>(g.num_nodes())) {}

const Path* YenSearch::next() {
  if (drained_) return nullptr;
  if (result_.empty()) {
    std::optional<Path> first;
    if (src_ != dst_) {
      first = dijkstra(*g_, src_, dst_, weights_, banned_links_,
                       banned_nodes_, ws_);
    }
    if (!first) {
      drained_ = true;
      return nullptr;
    }
    result_.push_back(std::move(*first));
    return &result_.back();
  }
  spur_from_last();
  if (candidates_.empty()) {
    drained_ = true;
    return nullptr;
  }
  result_.push_back(
      std::move(candidates_.extract(candidates_.begin()).value()));
  return &result_.back();
}

std::vector<Path> YenSearch::take_paths() {
  drained_ = true;
  candidates_.clear();
  return std::move(result_);
}

void YenSearch::spur_from_last() {
  const Path& prev = result_.back();
  sharing_.resize(result_.size());
  for (std::size_t j = 0; j < sharing_.size(); ++j) sharing_[j] = j;

  // Spur from every node of the previous path except the destination.
  // Found paths are distinct, loopless and end at dst, so each one in
  // `sharing_` has a link i.
  NodeId spur_node = src_;
  for (std::size_t i = 0; i < prev.links.size(); ++i) {
    const LinkId next = prev.links[i];
    sharing_next_.clear();
    for (const std::size_t j : sharing_) {
      if (result_[j].links[i] == next) sharing_next_.push_back(j);
    }
    // Lawler's skip: when an earlier path also continues this root
    // through `next`, adding prev banned no new link here, so the bans
    // equal those of the last spur from this root and the search would
    // return a path already in `candidates_` or `result_`.
    if (sharing_next_.size() == 1) {
      // Ban links that would recreate any already-found path sharing
      // this root.
      for (const std::size_t j : sharing_) {
        const LinkId l = result_[j].links[i];
        if (!banned_links_[static_cast<std::size_t>(l.v)]) {
          banned_links_[static_cast<std::size_t>(l.v)] = true;
          spur_banned_.push_back(l);
        }
      }
      auto spur = dijkstra(*g_, spur_node, dst_, weights_, banned_links_,
                           banned_nodes_, ws_);
      for (const LinkId l : spur_banned_) {
        banned_links_[static_cast<std::size_t>(l.v)] = false;
      }
      spur_banned_.clear();
      if (spur) {
        Path total;
        total.plane = prev.plane;
        total.links.reserve(i + spur->links.size());
        total.links.assign(prev.links.begin(),
                           prev.links.begin() +
                               static_cast<std::ptrdiff_t>(i));
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        const bool known = std::find(result_.begin(), result_.end(),
                                     total) != result_.end();
        if (!known) candidates_.insert(std::move(total));
      }
    }
    // Ban the root path's interior nodes so spur paths stay loopless.
    banned_nodes_[static_cast<std::size_t>(spur_node.v)] = true;
    spur_node = g_->link(next).dst;
    sharing_.swap(sharing_next_);
  }
  banned_nodes_[static_cast<std::size_t>(src_.v)] = false;
  for (const LinkId id : prev.links) {
    banned_nodes_[static_cast<std::size_t>(g_->link(id).dst.v)] = false;
  }
}

std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights,
                                   const std::vector<bool>* banned_links) {
  if (k <= 0) return {};
  YenSearch search(g, src, dst, tiebreak_weights, banned_links);
  for (int found = 0; found < k; ++found) {
    if (search.next() == nullptr) break;
  }
  return search.take_paths();
}

}  // namespace pnet::routing
