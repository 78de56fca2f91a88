// Closed-loop load harness for the pnet-serve query service.
//
// Drives an in-process serve::Service (the daemon minus the sockets — the
// same admission queue, dedup, result cache, and engine pool the wire
// clients hit) with N closed-loop client threads issuing a hot/cold spec
// mix: a small pool of hot specs requested repeatedly (the cache + dedup
// path) and cold specs unique per request (the engine path). Reports
// queries/sec, cache hit rate, dedup joins, and client-observed p50/p99
// latency, and asserts the determinism contract along the way: every
// response for a given spec hash must be byte-identical.
//
//   ./bench_serve --clients=4 --queries=50 --json=BENCH_serve.json

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exp/json.hpp"
#include "serve/service.hpp"
#include "util/file.hpp"
#include "util/parallel.hpp"

using namespace pnet;

namespace {

constexpr const char kUsage[] =
    "  --clients N     closed-loop client threads (default 4)\n"
    "  --queries N     queries per client (default 50)\n"
    "  --hot N         hot-spec pool size (default 8)\n"
    "  --hot-frac F    fraction of queries drawn from the hot pool "
    "(default 0.8)\n"
    "  --workers N     service engine-pool threads (default 2)\n"
    "  --hosts N       topology size per query (default 16)\n"
    "  --engine E      packet|fsim (default fsim)\n"
    "  --seed S        base seed (default 1)\n"
    "  --json PATH     write the results JSON here\n";

exp::ExperimentSpec make_query(exp::EngineKind engine, int hosts,
                               std::uint64_t seed) {
  exp::ExperimentSpec spec;
  spec.name = "serve-load-" + std::to_string(seed);
  spec.engine = engine;
  spec.seed = seed;
  spec.trials = 1;
  spec.topo.hosts = hosts;
  spec.topo.parallelism = 2;
  spec.workload.pattern = exp::WorkloadSpec::Pattern::kPermutation;
  spec.workload.flow_bytes = 100'000;
  spec.workload.rounds = 1;
  return spec;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("pnet-serve closed-loop load harness", flags, kUsage);

  const int clients = flags.get_int("clients", 4);
  const int queries = flags.get_int("queries", 50);
  const int hot_pool = flags.get_int("hot", 8);
  const double hot_frac = flags.get_double("hot-frac", 0.8);
  const int hosts = flags.get_int("hosts", 16);
  const auto engine = bench::parse_engine_or(flags, exp::EngineKind::kFsim);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      flags.get_i64("seed", 1));

  serve::ServiceOptions options;
  options.workers = flags.get_int("workers", 2);
  // Closed-loop clients bound the concurrency, so the queue never needs to
  // be deeper than the client count.
  options.queue_limit = static_cast<std::size_t>(clients) + 4;
  serve::Service service(options);

  // Pre-render request lines: hot specs shared by all clients, cold specs
  // unique per (client, query index). The canonical spec JSON is itself a
  // valid request line — the wire format round-trips.
  std::vector<std::string> hot_lines;
  hot_lines.reserve(static_cast<std::size_t>(hot_pool));
  for (int h = 0; h < hot_pool; ++h) {
    hot_lines.push_back(
        make_query(engine, hosts, seed + static_cast<std::uint64_t>(h))
            .canonical_json());
  }

  // Determinism audit: every response observed for a request line must be
  // byte-identical across clients, cache hits, and dedup joins.
  std::mutex audit_mutex;
  std::map<std::string, std::string> first_body;
  std::uint64_t mismatches = 0;

  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  const bench::WallClock clock;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& my = stats[static_cast<std::size_t>(c)];
      std::uint64_t rng =
          util::job_seed(seed, 1000 + c);  // deterministic per client
      for (int q = 0; q < queries; ++q) {
        rng = mix64(rng + 0x9E3779B97F4A7C15ULL);
        const bool hot =
            hot_pool > 0 &&
            static_cast<double>(rng % 1000) < hot_frac * 1000.0;
        std::string cold_line;
        const std::string* line = nullptr;
        if (hot) {
          line = &hot_lines[rng % static_cast<std::uint64_t>(hot_pool)];
        } else {
          // Unique seed far outside the hot range: always an engine run.
          cold_line = make_query(
                          engine, hosts,
                          seed + 100000 +
                              static_cast<std::uint64_t>(c) * 10000 +
                              static_cast<std::uint64_t>(q))
                          .canonical_json();
          line = &cold_line;
        }
        const bench::WallClock t0;
        const std::string body = service.handle_line(*line);
        my.latency_ms.push_back(t0.seconds() * 1e3);
        if (body.rfind("{\"ok\":true", 0) == 0) {
          ++my.ok;
        } else {
          ++my.errors;
        }
        const std::lock_guard<std::mutex> lock(audit_mutex);
        const auto [it, inserted] = first_body.emplace(*line, body);
        if (!inserted && it->second != body) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s = clock.seconds();

  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  for (const auto& s : stats) {
    latency_ms.insert(latency_ms.end(), s.latency_ms.begin(),
                      s.latency_ms.end());
    ok += s.ok;
    errors += s.errors;
  }
  const auto pcts = percentiles(latency_ms, {50.0, 90.0, 99.0});
  const double total = static_cast<double>(latency_ms.size());
  const double qps = elapsed_s > 0.0 ? total / elapsed_s : 0.0;

  const auto snap = service.registry().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t engine_runs = counter("engine_runs");
  const std::uint64_t dedup_joins = counter("dedup_joins");
  const std::uint64_t probes = ok + errors;
  // Every query that neither ran an engine nor joined an in-flight run was
  // a result-cache hit.
  const std::uint64_t cache_hit_count =
      probes >= engine_runs + dedup_joins
          ? probes - engine_runs - dedup_joins
          : 0;
  const double hit_rate =
      probes > 0 ? static_cast<double>(cache_hit_count) /
                       static_cast<double>(probes)
                 : 0.0;

  TextTable table("pnet-serve closed loop",
                  {"clients", "queries", "qps", "hit_rate", "p50_ms",
                   "p99_ms"});
  table.add_row(std::to_string(clients),
                {total, qps, hit_rate, pcts[0], pcts[2]}, 3);
  table.print();
  std::printf("engine_runs=%llu dedup_joins=%llu cache_hits=%llu "
              "errors=%llu byte_mismatches=%llu\n",
              static_cast<unsigned long long>(engine_runs),
              static_cast<unsigned long long>(dedup_joins),
              static_cast<unsigned long long>(cache_hit_count),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(mismatches));

  if (const std::string path = flags.get("json", ""); !path.empty()) {
    exp::JsonWriter w;
    w.begin_object();
    w.field("bench", "serve");
    w.field("schema", 1);
    w.key("config").begin_object();
    w.field("clients", clients);
    w.field("queries_per_client", queries);
    w.field("hot_pool", hot_pool);
    w.field("hot_frac", hot_frac);
    w.field("workers", service.workers());
    w.field("hosts", hosts);
    w.field("engine", exp::to_string(engine));
    w.field("seed", seed);
    w.end_object();
    w.key("results").begin_object();
    w.field("queries", static_cast<std::uint64_t>(probes));
    w.field("ok", ok);
    w.field("errors", errors);
    w.field("elapsed_s", elapsed_s);
    w.field("qps", qps);
    w.field("engine_runs", engine_runs);
    w.field("dedup_joins", dedup_joins);
    w.field("cache_hits", cache_hit_count);
    w.field("cache_hit_rate", hit_rate);
    w.field("byte_mismatches", mismatches);
    w.key("latency_ms").begin_object();
    w.field("p50", pcts[0]);
    w.field("p90", pcts[1]);
    w.field("p99", pcts[2]);
    w.end_object();
    w.end_object();
    w.end_object();
    if (!util::write_file(path, w.str() + "\n")) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu byte-identity violation(s) — the "
                 "cache/dedup layer returned differing bodies for one spec\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  if (errors > 0) {
    std::fprintf(stderr, "bench_serve: %llu error response(s)\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return 0;
}
