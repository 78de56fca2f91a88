#include "lp/mcf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "routing/shortest.hpp"

namespace pnet::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shared Garg–Könemann state over a flattened link set.
struct GkState {
  explicit GkState(const std::vector<double>& capacity, double epsilon)
      : cap(capacity), eps(epsilon) {
    const double m = static_cast<double>(cap.size());
    delta = std::pow(m / (1.0 - eps), -1.0 / eps);
    length.resize(cap.size());
    for (std::size_t e = 0; e < cap.size(); ++e) {
      length[e] = cap[e] > 0.0 ? delta / cap[e] : kInf;
    }
    flow.assign(cap.size(), 0.0);
    dual = delta * static_cast<double>(cap.size());
  }

  /// Sends `amount` along `path` (global link ids), updating lengths and the
  /// dual objective incrementally.
  void send(std::span<const int> path, double amount) {
    for (int e : path) {
      const auto idx = static_cast<std::size_t>(e);
      flow[idx] += amount;
      const double growth = eps * amount / cap[idx];
      const double delta_len = length[idx] * growth;
      length[idx] += delta_len;
      dual += cap[idx] * delta_len;
    }
  }

  [[nodiscard]] double path_length(std::span<const int> path) const {
    double total = 0.0;
    for (int e : path) total += length[static_cast<std::size_t>(e)];
    return total;
  }

  [[nodiscard]] double bottleneck(std::span<const int> path) const {
    double c = kInf;
    for (int e : path) c = std::min(c, cap[static_cast<std::size_t>(e)]);
    return c;
  }

  /// Peak utilization of the accumulated (super-feasible) flow; dividing all
  /// rates by this yields a certified-feasible solution.
  [[nodiscard]] double max_utilization() const {
    double u = 0.0;
    for (std::size_t e = 0; e < cap.size(); ++e) {
      if (cap[e] > 0.0) u = std::max(u, flow[e] / cap[e]);
    }
    return u;
  }

  const std::vector<double>& cap;
  double eps;
  double delta = 0.0;
  std::vector<double> length;
  std::vector<double> flow;
  double dual = 0.0;  // sum_e cap_e * length_e; phases stop when >= 1
};

/// Every commodity's candidate paths, flattened once per solve: path p
/// crosses links[begin[p], begin[p + 1]) with bottleneck capacity
/// bottleneck[p], and commodity j owns paths [first[j], first[j + 1]).
struct PathStore {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  PathStore(const GkState& state, const std::vector<Commodity>& commodities)
      : begin{0}, first{0} {
    for (const Commodity& commodity : commodities) {
      for (const auto& path : commodity.paths) {
        links.insert(links.end(), path.begin(), path.end());
        begin.push_back(links.size());
        bottleneck.push_back(state.bottleneck(path));
      }
      first.push_back(bottleneck.size());
    }
  }

  [[nodiscard]] std::span<const int> path(std::size_t p) const {
    return {links.data() + begin[p], begin[p + 1] - begin[p]};
  }

  /// False when every path of commodity j crosses a zero-capacity link
  /// (infinitely long from the start), or it has none.
  [[nodiscard]] bool routable(std::size_t j) const {
    for (std::size_t p = first[j]; p < first[j + 1]; ++p) {
      if (bottleneck[p] > 0.0) return true;
    }
    return false;
  }

  /// Commodity j's cheapest path under the current lengths (the first on
  /// ties) and its length; kNone and +inf when none is finite.
  [[nodiscard]] std::pair<std::size_t, double> cheapest(
      const GkState& state, std::size_t j) const {
    std::size_t best = kNone;
    double best_len = kInf;
    for (std::size_t p = first[j]; p < first[j + 1]; ++p) {
      const double len = state.path_length(path(p));
      if (len < best_len) {
        best_len = len;
        best = p;
      }
    }
    return {best, best_len};
  }

  std::vector<int> links;
  std::vector<std::size_t> begin;
  std::vector<double> bottleneck;
  std::vector<std::size_t> first;
};

McfResult finish(const GkState& state, const std::vector<double>& routed,
                 const std::vector<double>& demands) {
  McfResult result;
  const double scale = state.max_utilization();
  result.rates.resize(routed.size(), 0.0);
  if (scale <= 0.0) return result;  // nothing routed at all
  result.alpha = kInf;
  for (std::size_t j = 0; j < routed.size(); ++j) {
    result.rates[j] = routed[j] / scale;
    result.total_throughput += result.rates[j];
    result.alpha = std::min(result.alpha, result.rates[j] / demands[j]);
  }
  if (!std::isfinite(result.alpha)) result.alpha = 0.0;
  return result;
}

/// Practical convergence tracking: GK's theoretical stopping rule (dual >= 1)
/// can take many phases at small epsilon; the rescaled alpha typically
/// plateaus long before. We stop once alpha has been stable for a window.
class Plateau {
 public:
  bool converged(double alpha) {
    if (alpha > best_ * (1.0 + kTol)) {
      best_ = alpha;
      stable_ = 0;
    } else {
      ++stable_;
    }
    return stable_ >= kWindow;
  }

 private:
  static constexpr double kTol = 0.003;
  static constexpr int kWindow = 12;
  double best_ = 0.0;
  int stable_ = 0;
};

}  // namespace

McfResult max_concurrent_flow(const std::vector<double>& capacity,
                              const std::vector<Commodity>& commodities,
                              const McfOptions& options) {
  GkState state(capacity, options.epsilon);
  const PathStore store(state, commodities);
  std::vector<double> routed(commodities.size(), 0.0);
  std::vector<double> demands(commodities.size(), 0.0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    demands[j] = commodities[j].demand;
  }

  // A commodity with no candidate path, or only paths across a
  // zero-capacity link, pins alpha to zero; report that without burning
  // phases.
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    if (!store.routable(j)) {
      McfResult result;
      result.rates.assign(commodities.size(), 0.0);
      return result;
    }
  }

  Plateau plateau;
  for (int phase = 0; phase < options.max_phases && state.dual < 1.0;
       ++phase) {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      double remaining = commodities[j].demand;
      while (remaining > 0.0 && state.dual < 1.0) {
        // Oracle: cheapest candidate path under current lengths.
        const std::size_t best = store.cheapest(state, j).first;
        assert(best != PathStore::kNone);
        const double amount = std::min(remaining, store.bottleneck[best]);
        state.send(store.path(best), amount);
        routed[j] += amount;
        remaining -= amount;
      }
    }
    if (phase >= 8 &&
        plateau.converged(finish(state, routed, demands).alpha)) {
      break;
    }
  }
  return finish(state, routed, demands);
}

McfResult max_total_flow(const std::vector<double>& capacity,
                         const std::vector<Commodity>& commodities,
                         const McfOptions& options) {
  GkState state(capacity, options.epsilon);
  const PathStore store(state, commodities);
  std::vector<double> routed(commodities.size(), 0.0);
  std::vector<double> demands(commodities.size(), 1.0);

  // Garg–Könemann max multicommodity flow (no concurrency constraint): a
  // commodity only routes while its cheapest candidate path has length < 1
  // (Fleischer's dual-feasibility rule). Commodities whose paths cross
  // saturated links price themselves out; the others keep filling spare
  // capacity — that differential is what "maximize total" means. The final
  // utilization rescale certifies feasibility.
  //
  // Priced out is permanent: lengths only grow, and a rounded sum of
  // terms that do not decrease does not decrease, so a commodity leaves
  // `active` (kept in index order) the first time its cheapest path
  // reaches 1.
  std::vector<std::size_t> active;
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    if (!commodities[j].paths.empty()) active.push_back(j);
  }
  for (int phase = 0; phase < options.max_phases && !active.empty();
       ++phase) {
    std::size_t kept = 0;
    for (const std::size_t j : active) {
      const auto [best, best_len] = store.cheapest(state, j);
      if (best_len >= 1.0) continue;  // priced out
      active[kept++] = j;
      const double amount =
          std::min(commodities[j].demand, store.bottleneck[best]);
      state.send(store.path(best), amount);
      routed[j] += amount;
    }
    active.resize(kept);
  }
  auto result = finish(state, routed, demands);
  result.alpha = 0.0;
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    // Honour per-commodity demand caps post-rescale.
    if (result.rates[j] > commodities[j].demand) {
      result.total_throughput -= result.rates[j] - commodities[j].demand;
      result.rates[j] = commodities[j].demand;
    }
  }
  return result;
}

McfResult max_concurrent_flow_oracle(
    const topo::ParallelNetwork& net, const LinkIndex& index,
    const std::vector<OracleCommodity>& commodities,
    const McfOptions& options) {
  GkState state(index.capacity(), options.epsilon);
  std::vector<double> routed(commodities.size(), 0.0);
  std::vector<double> demands(commodities.size(), 0.0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    demands[j] = commodities[j].demand;
  }

  // Per-plane weight views for the Dijkstra oracle (local link id order
  // matches the global flattening, so the slice is contiguous).
  const int planes = net.num_planes();
  std::vector<routing::LinkWeights> plane_weights(
      static_cast<std::size_t>(planes));
  auto refresh_weights = [&](int plane) {
    const int offset = index.plane_offset(plane);
    const int count = index.plane_link_count(plane);
    auto& w = plane_weights[static_cast<std::size_t>(plane)];
    w.assign(state.length.begin() + offset,
             state.length.begin() + offset + count);
  };

  Plateau plateau;
  for (int phase = 0; phase < options.max_phases && state.dual < 1.0;
       ++phase) {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      const OracleCommodity& commodity = commodities[j];
      double remaining = commodity.demand;
      while (remaining > 0.0 && state.dual < 1.0) {
        // Oracle: true shortest path under current lengths, over all planes.
        std::vector<int> best;
        double best_len = kInf;
        for (int p = 0; p < planes; ++p) {
          refresh_weights(p);
          const auto [src, dst] =
              commodity.endpoints[static_cast<std::size_t>(p)];
          const auto path = routing::dijkstra(
              net.plane(p).graph, src, dst,
              plane_weights[static_cast<std::size_t>(p)]);
          if (!path) continue;
          routing::Path copy = *path;
          copy.plane = p;
          const auto global = index.to_global(copy);
          const double len = state.path_length(global);
          if (len < best_len) {
            best_len = len;
            best = global;
          }
        }
        if (best.empty()) {
          // Disconnected commodity: alpha is zero by definition.
          McfResult result;
          result.rates.assign(commodities.size(), 0.0);
          return result;
        }
        const double amount = std::min(remaining, state.bottleneck(best));
        state.send(best, amount);
        routed[j] += amount;
        remaining -= amount;
      }
    }
    if (phase >= 8 &&
        plateau.converged(finish(state, routed, demands).alpha)) {
      break;
    }
  }
  return finish(state, routed, demands);
}

std::vector<double> max_min_fair(
    const std::vector<double>& capacity,
    const std::vector<std::vector<int>>& flow_paths) {
  const std::size_t num_flows = flow_paths.size();
  std::vector<double> rate(num_flows, 0.0);
  std::vector<bool> frozen(num_flows, false);

  std::vector<double> remaining = capacity;
  std::vector<int> active_on_link(capacity.size(), 0);
  for (const auto& path : flow_paths) {
    for (int e : path) ++active_on_link[static_cast<std::size_t>(e)];
  }

  std::size_t frozen_count = 0;
  // Pathless flows are unconstrained; pin them to zero rather than letting
  // them absorb shares.
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_paths[f].empty()) {
      frozen[f] = true;
      ++frozen_count;
    }
  }
  while (frozen_count < num_flows) {
    // The next saturating link is the one with the smallest fair share.
    double min_share = kInf;
    for (std::size_t e = 0; e < capacity.size(); ++e) {
      if (active_on_link[e] > 0) {
        min_share = std::min(min_share,
                             remaining[e] / static_cast<double>(
                                                active_on_link[e]));
      }
    }
    if (!std::isfinite(min_share)) break;  // remaining flows use no links

    // Raise every unfrozen flow by the share and freeze those crossing a
    // link that just saturated.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (!frozen[f]) rate[f] += min_share;
    }
    for (std::size_t e = 0; e < capacity.size(); ++e) {
      if (active_on_link[e] > 0) {
        remaining[e] -= min_share * static_cast<double>(active_on_link[e]);
      }
    }
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      bool saturated = false;
      for (int e : flow_paths[f]) {
        if (remaining[static_cast<std::size_t>(e)] <= 1e-9 *
                capacity[static_cast<std::size_t>(e)]) {
          saturated = true;
          break;
        }
      }
      if (saturated || flow_paths[f].empty()) {
        frozen[f] = true;
        ++frozen_count;
        for (int e : flow_paths[f]) {
          --active_on_link[static_cast<std::size_t>(e)];
        }
      }
    }
  }
  return rate;
}

}  // namespace pnet::lp
