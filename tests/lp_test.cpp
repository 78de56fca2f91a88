// Tests for the LP substrate: simplex on known instances, max-min fairness
// properties, and Garg–Könemann cross-validated against the exact simplex
// solution on randomized small networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "lp/link_index.hpp"
#include "lp/mcf.hpp"
#include "lp/simplex.hpp"
#include "routing/plane_paths.hpp"
#include "routing/yen.hpp"
#include "topo/parallel.hpp"
#include "util/rng.hpp"

namespace pnet::lp {
namespace {

// The fixed-path Garg–Könemann solvers as they were before the flat path
// store and the priced-out list, kept verbatim as the reference the fast
// path must match bit for bit.
namespace reference {

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
  void send(const std::vector<int>& path, double amount) {
    for (int e : path) {
      const auto idx = static_cast<std::size_t>(e);
      flow[idx] += amount;
      const double growth = eps * amount / cap[idx];
      const double delta_len = length[idx] * growth;
      length[idx] += delta_len;
      dual += cap[idx] * delta_len;
    }
  }

  [[nodiscard]] double path_length(const std::vector<int>& path) const {
    double total = 0.0;
    for (int e : path) total += length[static_cast<std::size_t>(e)];
    return total;
  }

  [[nodiscard]] double bottleneck(const std::vector<int>& path) const {
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

McfResult max_concurrent_flow(const std::vector<double>& capacity,
                              const std::vector<Commodity>& commodities,
                              const McfOptions& options) {
  GkState state(capacity, options.epsilon);
  std::vector<double> routed(commodities.size(), 0.0);
  std::vector<double> demands(commodities.size(), 0.0);
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    demands[j] = commodities[j].demand;
  }

  // A commodity with no candidate path pins alpha to zero; report that
  // without burning phases.
  for (const auto& commodity : commodities) {
    if (commodity.paths.empty()) {
      McfResult result;
      result.rates.assign(commodities.size(), 0.0);
      return result;
    }
  }

  Plateau plateau;
  for (int phase = 0; phase < options.max_phases && state.dual < 1.0;
       ++phase) {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      const Commodity& commodity = commodities[j];
      double remaining = commodity.demand;
      while (remaining > 0.0 && state.dual < 1.0) {
        // Oracle: cheapest candidate path under current lengths.
        const std::vector<int>* best = nullptr;
        double best_len = kInf;
        for (const auto& path : commodity.paths) {
          const double len = state.path_length(path);
          if (len < best_len) {
            best_len = len;
            best = &path;
          }
        }
        assert(best != nullptr);
        const double amount = std::min(remaining, state.bottleneck(*best));
        state.send(*best, amount);
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
  std::vector<double> routed(commodities.size(), 0.0);
  std::vector<double> demands(commodities.size(), 1.0);

  // Garg–Könemann max multicommodity flow (no concurrency constraint): a
  // commodity only routes while its cheapest candidate path has length < 1
  // (Fleischer's dual-feasibility rule). Commodities whose paths cross
  // saturated links price themselves out; the others keep filling spare
  // capacity — that differential is what "maximize total" means. The final
  // utilization rescale certifies feasibility.
  for (int phase = 0; phase < options.max_phases; ++phase) {
    bool progress = false;
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      const Commodity& commodity = commodities[j];
      if (commodity.paths.empty()) continue;
      const std::vector<int>* best = nullptr;
      double best_len = kInf;
      for (const auto& path : commodity.paths) {
        const double len = state.path_length(path);
        if (len < best_len) {
          best_len = len;
          best = &path;
        }
      }
      if (best_len >= 1.0) continue;  // priced out
      const double amount =
          std::min(commodity.demand, state.bottleneck(*best));
      state.send(*best, amount);
      routed[j] += amount;
      progress = true;
    }
    if (!progress) break;
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

}  // namespace reference

TEST(Simplex, TextbookInstance) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
  LinearProgram lp;
  lp.objective = {3, 5};
  lp.rows = {{1, 0}, {0, 2}, {3, 2}};
  lp.rhs = {4, 12, 18};
  const auto solution = solve_simplex(lp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_NEAR(solution->objective_value, 36.0, 1e-9);
  EXPECT_NEAR(solution->x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution->x[1], 6.0, 1e-9);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  lp.objective = {1.0};
  lp.rows = {};  // no constraints at all
  lp.rhs = {};
  EXPECT_FALSE(solve_simplex(lp).has_value());
}

TEST(Simplex, DegenerateInstanceTerminates) {
  // Classic degenerate pivot case; Bland's rule must not cycle.
  LinearProgram lp;
  lp.objective = {10, -57, -9, -24};
  lp.rows = {{0.5, -5.5, -2.5, 9}, {0.5, -1.5, -0.5, 1}, {1, 0, 0, 0}};
  lp.rhs = {0, 0, 1};
  const auto solution = solve_simplex(lp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_NEAR(solution->objective_value, 1.0, 1e-9);
}

TEST(Simplex, RejectsNegativeRhs) {
  LinearProgram lp;
  lp.objective = {1};
  lp.rows = {{1}};
  lp.rhs = {-1};
  EXPECT_THROW(solve_simplex(lp), std::invalid_argument);
}

TEST(MaxMinFair, TwoFlowsShareOneLink) {
  const std::vector<double> cap = {10.0};
  const std::vector<std::vector<int>> paths = {{0}, {0}};
  const auto rates = max_min_fair(cap, paths);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMinFair, ParkingLot) {
  // Links 0,1,2 in a chain, cap 10. Flow A crosses all three; flows B, C, D
  // cross one link each. Max-min: A=5, B=C=D=5.
  const std::vector<double> cap = {10, 10, 10};
  const std::vector<std::vector<int>> paths = {{0, 1, 2}, {0}, {1}, {2}};
  const auto rates = max_min_fair(cap, paths);
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 5.0);
}

TEST(MaxMinFair, UnevenBottlenecks) {
  // Flow A uses link 0 (cap 2) and link 1 (cap 10); flow B uses link 1 only.
  // A is capped at 2 by link 0; B then takes the rest of link 1 => 8.
  const std::vector<double> cap = {2, 10};
  const std::vector<std::vector<int>> paths = {{0, 1}, {1}};
  const auto rates = max_min_fair(cap, paths);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(MaxMinFair, PathlessFlowGetsZero) {
  const std::vector<double> cap = {10};
  const std::vector<std::vector<int>> paths = {{0}, {}};
  const auto rates = max_min_fair(cap, paths);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(Gk, SingleCommoditySinglePath) {
  const std::vector<double> cap = {10, 20};
  std::vector<Commodity> commodities(1);
  commodities[0].demand = 5.0;
  commodities[0].paths = {{0, 1}};
  const auto result = max_concurrent_flow(cap, commodities);
  // Bottleneck is 10; alpha = 10 / 5 = 2.
  EXPECT_NEAR(result.alpha, 2.0, 0.05);
  EXPECT_NEAR(result.total_throughput, 10.0, 0.3);
}

TEST(Gk, TwoCommoditiesShareLink) {
  const std::vector<double> cap = {10};
  std::vector<Commodity> commodities(2);
  for (auto& c : commodities) {
    c.demand = 10.0;
    c.paths = {{0}};
  }
  const auto result = max_concurrent_flow(cap, commodities);
  EXPECT_NEAR(result.alpha, 0.5, 0.02);
}

TEST(Gk, PrefersUncongestedParallelPath) {
  // Two disjoint unit-cap paths; one commodity with demand 2 can use both.
  const std::vector<double> cap = {1, 1};
  std::vector<Commodity> commodities(1);
  commodities[0].demand = 2.0;
  commodities[0].paths = {{0}, {1}};
  const auto result = max_concurrent_flow(cap, commodities);
  EXPECT_NEAR(result.alpha, 1.0, 0.03);
  EXPECT_NEAR(result.total_throughput, 2.0, 0.06);
}

TEST(Gk, EmptyPathSetYieldsZero) {
  const std::vector<double> cap = {1};
  std::vector<Commodity> commodities(2);
  commodities[0].demand = 1.0;
  commodities[0].paths = {{0}};
  commodities[1].demand = 1.0;  // no paths
  const auto result = max_concurrent_flow(cap, commodities);
  EXPECT_DOUBLE_EQ(result.alpha, 0.0);
}

/// Random small Jellyfish instances: GK must track the exact LP optimum.
class GkVsSimplex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GkVsSimplex, WithinFivePercent) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 24;
  spec.jf_switches = 12;
  spec.jf_degree = 4;
  spec.jf_hosts_per_switch = 2;
  spec.type = topo::NetworkType::kSerialLow;
  spec.base_rate_bps = 1.0;  // unit capacities keep the LP well-scaled
  spec.seed = GetParam();
  const auto net = topo::build_network(spec);
  const LinkIndex index(net);

  Rng rng(GetParam() * 977);
  const auto perm = rng.derangement(net.num_hosts());

  std::vector<Commodity> commodities;
  std::vector<std::vector<std::vector<int>>> commodity_paths;
  std::vector<double> demands;
  for (int src = 0; src < 8; ++src) {  // a subset keeps the simplex small
    const int dst = perm[static_cast<std::size_t>(src)];
    const auto paths = routing::ksp_across_planes(net, HostId{src},
                                                  HostId{dst}, 4);
    Commodity c;
    c.demand = 1.0;
    std::vector<std::vector<int>> global;
    for (const auto& p : paths) {
      global.push_back(index.to_global(p));
    }
    c.paths = global;
    commodities.push_back(c);
    commodity_paths.push_back(global);
    demands.push_back(1.0);
  }

  McfOptions options;
  options.epsilon = 0.03;
  const auto gk = max_concurrent_flow(index.capacity(), commodities, options);
  const double exact =
      exact_max_concurrent_flow(index.capacity(), demands, commodity_paths);
  ASSERT_GT(exact, 0.0);
  EXPECT_GT(gk.alpha, 0.95 * exact);
  EXPECT_LE(gk.alpha, exact + 1e-6);  // rescaled GK is always feasible
}

INSTANTIATE_TEST_SUITE_P(Seeds, GkVsSimplex,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Gk, FatTreePermutationWithFullEcmpIsNonBlocking) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.type = topo::NetworkType::kSerialLow;
  spec.base_rate_bps = 1.0;
  const auto net = topo::build_network(spec);
  const LinkIndex index(net);

  Rng rng(7);
  const auto perm = rng.derangement(net.num_hosts());
  std::vector<Commodity> commodities;
  for (int src = 0; src < net.num_hosts(); ++src) {
    Commodity c;
    c.demand = 1.0;
    for (const auto& p : routing::ecmp_paths_in_plane(
             net, 0, HostId{src}, HostId{perm[static_cast<std::size_t>(src)]})) {
      c.paths.push_back(index.to_global(p));
    }
    commodities.push_back(std::move(c));
  }
  const auto result = max_concurrent_flow(index.capacity(), commodities);
  // A fat tree is non-blocking: every permutation is routable at full rate
  // when flows may split across all equal-cost paths.
  EXPECT_GT(result.alpha, 0.93);
}

TEST(Gk, AlphaRescalingStaysFeasibleOnSaturatedPermutation) {
  // A permutation of single-path flows whose demand equals the link rate
  // saturates the fabric exactly: the rescaled GK alpha must never exceed
  // 1, and the per-link load implied by the returned rates must never
  // exceed capacity (the rescale-by-peak-utilization guarantee).
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.type = topo::NetworkType::kSerialLow;
  spec.base_rate_bps = 1.0;
  const auto net = topo::build_network(spec);
  const LinkIndex index(net);

  Rng rng(21);
  const auto perm = rng.derangement(net.num_hosts());
  std::vector<Commodity> commodities;
  std::vector<std::vector<int>> single_paths;
  for (int src = 0; src < net.num_hosts(); ++src) {
    const auto paths = routing::ecmp_paths_in_plane(
        net, 0, HostId{src}, HostId{perm[static_cast<std::size_t>(src)]});
    ASSERT_FALSE(paths.empty());
    Commodity c;
    c.demand = net.plane(0).link_rate_bps;  // host uplink: saturating
    c.paths.push_back(index.to_global(paths.front()));
    single_paths.push_back(c.paths.front());
    commodities.push_back(std::move(c));
  }
  McfOptions options;
  options.epsilon = 0.02;
  const auto result =
      max_concurrent_flow(index.capacity(), commodities, options);
  ASSERT_GT(result.alpha, 0.0);
  EXPECT_LE(result.alpha, 1.0 + 1e-9);

  // Feasibility: accumulate each commodity's delivered rate onto its
  // (single) path and compare against capacity link by link.
  std::vector<double> load(index.capacity().size(), 0.0);
  ASSERT_EQ(result.rates.size(), commodities.size());
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    for (int link : single_paths[c]) {
      load[static_cast<std::size_t>(link)] += result.rates[c];
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], index.capacity()[l] * (1.0 + 1e-9)) << "link " << l;
  }
}

TEST(GkOracle, TwoPlanesDoubleThroughput) {
  topo::NetworkSpec base;
  base.topo = topo::TopoKind::kJellyfish;
  base.hosts = 24;
  base.jf_switches = 12;
  base.jf_degree = 4;
  base.jf_hosts_per_switch = 2;
  base.base_rate_bps = 1.0;
  base.parallelism = 2;

  auto run = [&](topo::NetworkType type) {
    topo::NetworkSpec spec = base;
    spec.type = type;
    const auto net = topo::build_network(spec);
    const LinkIndex index(net);
    Rng rng(3);
    const auto perm = rng.derangement(net.num_hosts());
    std::vector<OracleCommodity> commodities;
    for (int src = 0; src < net.num_hosts(); ++src) {
      OracleCommodity c;
      c.demand = 1.0;
      for (int p = 0; p < net.num_planes(); ++p) {
        c.endpoints.emplace_back(
            net.host_node(p, HostId{src}),
            net.host_node(p, HostId{perm[static_cast<std::size_t>(src)]}));
      }
      commodities.push_back(std::move(c));
    }
    return max_concurrent_flow_oracle(net, index, commodities).alpha;
  };

  const double serial = run(topo::NetworkType::kSerialLow);
  const double parallel = run(topo::NetworkType::kParallelHomogeneous);
  ASSERT_GT(serial, 0.0);
  // Two identical planes must carry (about) twice the concurrent flow.
  EXPECT_NEAR(parallel / serial, 2.0, 0.15);
}

/// A random fixed-path instance: capacities on `links` links (about one in
/// eight zero), commodities with zero to five paths of one to six distinct
/// links. With `routable`, every commodity has a path and its first one
/// avoids the zero-capacity links.
struct PathInstance {
  std::vector<double> capacity;
  std::vector<Commodity> commodities;
};

PathInstance random_path_instance(Rng& rng, bool routable) {
  PathInstance inst;
  const int links = 4 + static_cast<int>(rng.next_below(28));
  std::vector<int> live;
  for (int e = 0; e < links; ++e) {
    const bool zero = rng.next_below(8) == 0;
    inst.capacity.push_back(zero ? 0.0 : 1.0 + 9.0 * rng.next_double());
    if (!zero) live.push_back(e);
  }
  if (live.empty()) {
    inst.capacity[0] = 1.0;
    live.push_back(0);
  }
  auto random_path = [&](const std::vector<int>& pool) {
    std::vector<int> path;
    const auto hops =
        1 + rng.next_below(std::min<std::uint64_t>(6, pool.size()));
    while (path.size() < hops) {
      const int e = pool[rng.next_below(pool.size())];
      if (std::find(path.begin(), path.end(), e) == path.end()) {
        path.push_back(e);
      }
    }
    return path;
  };
  std::vector<int> all(static_cast<std::size_t>(links));
  std::iota(all.begin(), all.end(), 0);
  const int count = 1 + static_cast<int>(rng.next_below(24));
  for (int j = 0; j < count; ++j) {
    Commodity c;
    c.demand = 0.5 + 9.5 * rng.next_double();
    const auto paths = rng.next_below(6);
    if (routable || paths > 0) {
      c.paths.push_back(random_path(routable ? live : all));
    }
    for (std::uint64_t p = 1; p < paths; ++p) {
      c.paths.push_back(random_path(all));
    }
    inst.commodities.push_back(std::move(c));
  }
  return inst;
}

void expect_bitwise_equal(const McfResult& got, const McfResult& want,
                          int instance) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.alpha),
            std::bit_cast<std::uint64_t>(want.alpha))
      << "instance " << instance;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_throughput),
            std::bit_cast<std::uint64_t>(want.total_throughput))
      << "instance " << instance;
  ASSERT_EQ(got.rates.size(), want.rates.size());
  for (std::size_t j = 0; j < got.rates.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rates[j]),
              std::bit_cast<std::uint64_t>(want.rates[j]))
        << "instance " << instance << " commodity " << j;
  }
}

TEST(GkReference, MaxTotalFlowMatchesReferenceBitForBit) {
  Rng rng(4242);
  int pathless = 0;
  int dead_links = 0;
  for (int i = 0; i < 300; ++i) {
    const PathInstance inst = random_path_instance(rng, /*routable=*/false);
    McfOptions options;
    options.epsilon = i % 3 == 0 ? 0.05 : 0.1;
    for (const auto& c : inst.commodities) pathless += c.paths.empty();
    dead_links += static_cast<int>(
        std::count(inst.capacity.begin(), inst.capacity.end(), 0.0));
    expect_bitwise_equal(
        max_total_flow(inst.capacity, inst.commodities, options),
        reference::max_total_flow(inst.capacity, inst.commodities, options),
        i);
  }
  EXPECT_GT(pathless, 0);
  EXPECT_GT(dead_links, 0);
}

TEST(GkReference, MaxConcurrentFlowMatchesReferenceBitForBit) {
  Rng rng(4343);
  for (int i = 0; i < 300; ++i) {
    PathInstance inst = random_path_instance(rng, /*routable=*/true);
    // Now and then a commodity without paths: alpha is zero for both.
    if (i % 10 == 0) inst.commodities.back().paths.clear();
    McfOptions options;
    options.epsilon = i % 3 == 0 ? 0.05 : 0.1;
    expect_bitwise_equal(
        max_concurrent_flow(inst.capacity, inst.commodities, options),
        reference::max_concurrent_flow(inst.capacity, inst.commodities,
                                       options),
        i);
  }
}

TEST(Gk, CommodityOnlyAcrossDeadLinkYieldsZero) {
  // The only path of commodity 1 crosses a zero-capacity link: alpha is
  // zero, as for a commodity without paths.
  const std::vector<double> cap = {1.0, 0.0};
  std::vector<Commodity> commodities(2);
  commodities[0].paths = {{0}};
  commodities[1].paths = {{0, 1}};
  const auto concurrent = max_concurrent_flow(cap, commodities);
  EXPECT_DOUBLE_EQ(concurrent.alpha, 0.0);
  EXPECT_EQ(concurrent.rates, std::vector<double>(2, 0.0));
  const auto total = max_total_flow(cap, commodities);
  EXPECT_GT(total.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(total.rates[1], 0.0);
}

TEST(LinkIndexTest, FlattensPlanes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = topo::build_network(spec);
  const LinkIndex index(net);
  EXPECT_EQ(index.num_links(),
            net.plane(0).graph.num_links() + net.plane(1).graph.num_links());
  EXPECT_EQ(index.plane_offset(0), 0);
  EXPECT_EQ(index.plane_offset(1), net.plane(0).graph.num_links());
  // Every capacity matches its plane's link rate.
  for (double c : index.capacity()) EXPECT_DOUBLE_EQ(c, 100e9);

  routing::Path path;
  path.plane = 1;
  path.links = {LinkId{0}, LinkId{5}};
  const auto global = index.to_global(path);
  EXPECT_EQ(global[0], index.plane_offset(1));
  EXPECT_EQ(global[1], index.plane_offset(1) + 5);
}

}  // namespace
}  // namespace pnet::lp
