// google-benchmark microbenchmarks for the routing substrate: BFS, ECMP
// enumeration, Yen KSP, cross-plane KSP merge, the compiled RouteTable
// arena, and the shared RouteCache (cold miss vs warm hit). These quantify
// the cost of the path computations the experiments lean on.
//
// Besides the default google-benchmark mode, `--json[=PATH]` switches to a
// self-contained report mode and writes one JSON document (committed as
// BENCH_routing.json at the repo root):
//  * route_cache — cold vs warm RouteCache lookup latency, hit rate and
//    arena footprint over --pairs distinct Jellyfish pairs;
//  * ksp_cold — cold ksp_across_planes for one host permutation on
//    flow_sweep-shaped fabrics (seed 1 for both; --hosts-host Jellyfish,
//    N = 1, 2, 4 planes,
//    K = 2N, per-pair tie-break seeds as fsim uses), the best of --repeat
//    passes, with the path count and an FNV-1a digest of every returned
//    link sequence. The digest is a pure function of the config: CI and
//    the bench_micro_routing_digest ctest require it to equal the
//    committed one, and CI fails on a >15% regression of its wall time;
//  * provenance — commit (--commit, default "unknown"), compiler, build
//    type and host_cpus.
// Report-mode flags: --hosts, --pairs, --repeat, --commit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/path_selector.hpp"
#include "exp/json.hpp"
#include "exp/spec.hpp"
#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "routing/route_cache.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"
#include "topo/parallel.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace pnet;

const topo::ParallelNetwork& jellyfish4() {
  static const auto net = [] {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kJellyfish;
    spec.type = topo::NetworkType::kParallelHeterogeneous;
    spec.hosts = 256;
    spec.parallelism = 4;
    return topo::build_network(spec);
  }();
  return net;
}

const topo::FatTree& fat_tree16() {
  static const auto ft = [] {
    topo::FatTreeConfig config;
    config.k = 16;
    return topo::build_fat_tree(config);
  }();
  return ft;
}

void BM_BfsFatTree(benchmark::State& state) {
  const auto& ft = fat_tree16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::bfs_hops(ft.graph, ft.host_nodes.front()));
  }
}
BENCHMARK(BM_BfsFatTree);

void BM_EcmpEnumerateFatTree(benchmark::State& state) {
  const auto& ft = fat_tree16();
  const auto cap = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::enumerate_shortest_paths(
        ft.graph, ft.host_nodes.front(), ft.host_nodes.back(), cap));
  }
}
BENCHMARK(BM_EcmpEnumerateFatTree)->Arg(8)->Arg(64);

void BM_YenJellyfish(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto k = static_cast<int>(state.range(0));
  const topo::Graph& g = net.plane(0).graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::k_shortest_paths(
        g, net.host_node(0, HostId{0}), net.host_node(0, HostId{200}), k));
  }
}
BENCHMARK(BM_YenJellyfish)->Arg(4)->Arg(8)->Arg(32);

void BM_KspAcrossPlanes(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::ksp_across_planes(net, HostId{0}, HostId{200}, k));
  }
}
BENCHMARK(BM_KspAcrossPlanes)->Arg(8)->Arg(16);

void BM_PathSelectorCached(benchmark::State& state) {
  const auto& net = jellyfish4();
  core::PolicyConfig config;
  config.policy = core::RoutingPolicy::kShortestPlane;
  core::PathSelector selector(net, config);
  (void)selector.select(HostId{0}, HostId{200}, 1000, 0);  // warm the cache
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector.select(HostId{0}, HostId{200}, 1000, ++key));
  }
}
BENCHMARK(BM_PathSelectorCached);

// Interning one path into a warm RouteTable: the marginal cost a cache
// miss pays on top of the compute (hash + dedup probe + slab copy).
void BM_RouteTableIntern(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto paths =
      routing::ksp_across_planes(net, HostId{0}, HostId{200}, 64);
  routing::RouteTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = paths[i++ % paths.size()];
    benchmark::DoNotOptimize(table.intern(p.plane, p.links));
  }
}
BENCHMARK(BM_RouteTableIntern);

// A cold RouteCache lookup: full KSP compute + intern. Each iteration uses
// a distinct destination so every lookup misses.
void BM_RouteCacheColdKsp(benchmark::State& state) {
  const auto& net = jellyfish4();
  routing::RouteCache cache(/*enabled=*/true);
  std::int32_t dst = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    dst = (dst + 1) % 255;
    // A fresh tie-break seed each wrap keeps later laps cold too.
    if (dst == 0) ++salt;
    benchmark::DoNotOptimize(cache.lookup(
        net, routing::RouteQuery::ksp(HostId{255}, HostId{dst}, 8, salt)));
  }
}
BENCHMARK(BM_RouteCacheColdKsp);

// A warm RouteCache lookup: shard lock + hash probe + epoch check.
void BM_RouteCacheWarmKsp(benchmark::State& state) {
  const auto& net = jellyfish4();
  routing::RouteCache cache(/*enabled=*/true);
  const auto q = routing::RouteQuery::ksp(HostId{0}, HostId{200}, 8, 7);
  (void)cache.lookup(net, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(net, q));
  }
}
BENCHMARK(BM_RouteCacheWarmKsp);

// --------------------------------------------------------- --json report

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// fsim's per-pair KSP tie-break seed (fsim/fluid.cpp), so the timed
/// lookups are the ones the fluid engine and flow_sweep issue.
std::uint64_t ksp_seed(HostId src, HostId dst) {
  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.v)) << 32) |
      static_cast<std::uint32_t>(dst.v);
  return mix64(pair_key ^ 0xABCD);
}

/// Appends "src>dst|plane:l,l,|plane:l,l,\n" for one pair's paths: the
/// text the ksp_cold digest hashes.
void append_paths(std::string& text, HostId src, HostId dst,
                  const std::vector<routing::Path>& paths) {
  text += std::to_string(src.v);
  text += '>';
  text += std::to_string(dst.v);
  for (const routing::Path& p : paths) {
    text += '|';
    text += std::to_string(p.plane);
    text += ':';
    for (const LinkId id : p.links) {
      text += std::to_string(id.v);
      text += ',';
    }
  }
  text += '\n';
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run_json_report(const Flags& flags) {
  flags.handle_usage(
      "report mode (--json[=PATH], default stdout):\n"
      "  --hosts=N         Jellyfish hosts per fabric (default 192)\n"
      "  --pairs=N         route_cache lookup pairs (default 512)\n"
      "  --repeat=N        ksp_cold passes, best kept (default 3)\n"
      "  --commit=SHA      provenance commit (default unknown)\n");
  const std::string path = flags.get("json", "-");
  const int hosts = flags.get_int("hosts", 192);
  const int pairs = flags.get_int("pairs", 512);
  const int repeat = std::max(1, flags.get_int("repeat", 3));

  exp::JsonWriter w;
  w.begin_object();
  w.field("bench", "micro_routing");
  w.key("provenance").begin_object();
  w.field("commit", flags.get("commit", "unknown"));
  w.field("compiler", compiler_id());
  w.field("build_type", PNET_BUILD_TYPE);
  w.field("host_cpus", static_cast<int>(std::thread::hardware_concurrency()));
  w.end_object();
  w.key("config").begin_object();
  w.field("hosts", hosts);
  w.field("pairs", pairs);
  w.field("repeat", repeat);
  w.end_object();

  // Cold vs warm lookup latency over `pairs` distinct jellyfish pairs.
  {
    const auto& net = jellyfish4();
    routing::RouteCache cache(/*enabled=*/true);
    std::vector<routing::RouteQuery> queries;
    Rng rng(17);
    for (int i = 0; i < pairs; ++i) {
      const HostId src{static_cast<std::int32_t>(rng.next_below(256))};
      HostId dst{static_cast<std::int32_t>(rng.next_below(256))};
      if (dst == src) dst = HostId{(dst.v + 1) % 256};
      queries.push_back(routing::RouteQuery::ksp(src, dst, 8, 7));
    }
    const auto t_cold = std::chrono::steady_clock::now();
    for (const auto& q : queries) (void)cache.lookup(net, q);
    const double cold_s = seconds_since(t_cold);
    const auto t_warm = std::chrono::steady_clock::now();
    for (const auto& q : queries) (void)cache.lookup(net, q);
    const double warm_s = seconds_since(t_warm);
    const auto stats = cache.stats();

    w.key("route_cache").begin_object();
    w.field("cold_lookup_ns_mean", cold_s * 1e9 / pairs);
    w.field("warm_lookup_ns_mean", warm_s * 1e9 / pairs);
    w.field("cold_over_warm", warm_s > 0 ? cold_s / warm_s : 0.0);
    w.field("hits", stats.hits);
    w.field("misses", stats.misses);
    w.field("hit_rate", static_cast<double>(stats.hits) /
                            static_cast<double>(stats.hits + stats.misses));
    w.field("entries", stats.entries);
    w.field("paths", stats.paths);
    w.field("arena_bytes", stats.arena_bytes);
    w.field("compute_ns", stats.compute_ns);
    w.end_object();
  }

  // Cold KSP on flow_sweep's fabric shape: every lookup computes.
  {
    std::string text;
    std::size_t total_paths = 0;
    double total_s = 0.0;
    w.key("ksp_cold").begin_object();
    w.field("hosts", hosts);
    w.key("rows").begin_array();
    for (const int planes : {1, 2, 4}) {
      topo::NetworkSpec spec;
      spec.topo = topo::TopoKind::kJellyfish;
      spec.type = planes == 1 ? topo::NetworkType::kSerialLow
                              : topo::NetworkType::kParallelHeterogeneous;
      spec.hosts = hosts;
      spec.parallelism = planes;
      spec.seed = 1;
      const auto net = topo::build_network(spec);
      const int k = 2 * planes;
      Rng rng(1);
      const auto permutation =
          workload::permutation_pairs(net.num_hosts(), rng);

      std::vector<std::vector<routing::Path>> routes(permutation.size());
      double best_s = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < permutation.size(); ++i) {
          const auto [src, dst] = permutation[i];
          routes[i] = routing::ksp_across_planes(net, src, dst, k,
                                                 ksp_seed(src, dst));
        }
        const double s = seconds_since(t0);
        if (rep == 0 || s < best_s) best_s = s;
      }
      std::string row_text;
      std::size_t row_paths = 0;
      for (std::size_t i = 0; i < permutation.size(); ++i) {
        append_paths(row_text, permutation[i].first, permutation[i].second,
                     routes[i]);
        row_paths += routes[i].size();
      }
      w.begin_object();
      w.field("planes", planes);
      w.field("k", k);
      w.field("pairs", static_cast<int>(permutation.size()));
      w.field("paths", row_paths);
      w.field("digest", hex64(exp::fnv1a(row_text)));
      w.field("wall_s", best_s);
      w.end_object();
      text += row_text;
      total_paths += row_paths;
      total_s += best_s;
    }
    w.end_array();
    w.field("paths", total_paths);
    w.field("digest", hex64(exp::fnv1a(text)));
    w.field("wall_s", total_s);
    w.end_object();
  }

  w.end_object();
  const std::string text = w.str() + "\n";
  const bool to_stdout = path == "-" || path == "1";
  if (!util::write_file(to_stdout ? "-" : path, text)) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  if (!to_stdout) std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      return run_json_report(Flags(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
