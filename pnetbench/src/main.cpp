// pnetbench: runs one named workload of BENCHMARK.json for a fixed time and
// prints its metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   pnetbench --workload packet_grid --seed 1 --seconds 10 --trace 0
//             --out-dir .bench_build/out
//
// The body repeats until --seconds have passed (at least twice); times are
// medians over the repetitions. Every repetition sets up from scratch, and
// an untraced one sets up kExtraSetups more times, so setup_s is a median
// over many samples taken across the whole run. With --trace 1 repetitions
// alternate untraced and traced: the tracing overhead is the median of the
// differences of each traced run_s and the untraced one before it, and
// their report digests must agree.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace pnetbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MiB"},
};
// Printed with the end-to-end metrics but not in BENCHMARK.json: on a
// shared virtual machine serve_mix's latencies and capacity move by a
// third or more between runs minutes apart, past the largest bound a
// metric may have (see README.md), so they cannot gate a change.
constexpr Metric kUngated[] = {
    {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"max_qps_in_slo", "1/s"}};

constexpr Metric kPerLayer[] = {
    {"topo.build_s", "s"},
    {"topo.self_s", "s"},
    {"routing.lookups", "count"},
    {"routing.hit_rate", "ratio"},
    {"routing.compute_s", "s"},
    {"routing.invalidations", "count"},
    {"routing.paths", "count"},
    {"routing.arena_mb", "MiB"},
    {"routing.self_s", "s"},
    {"core.harness_build_s", "s"},
    {"core.flow_start_s", "s"},
    {"core.self_s", "s"},
    {"sim.run_s", "s"},
    {"sim.run_s.single_path", "s"},
    {"sim.run_s.multipath", "s"},
    {"sim.finalize_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.drops", "count"},
    {"sim.retransmits", "count"},
    {"sim.timeouts", "count"},
    {"sim.heap_regrowths", "count"},
    {"sim.routes_interned", "count"},
    {"sim.route_dedup_hits", "count"},
    {"sim.shard_skew", "ratio"},
    {"sim.boundary_msgs", "count"},
    {"sim.self_s", "s"},
    {"fsim.run_s", "s"},
    {"fsim.events", "count"},
    {"fsim.full_solves", "count"},
    {"fsim.fast_path_ratio", "ratio"},
    {"fsim.self_s", "s"},
    {"lp.solves", "count"},
    {"lp.solve_s", "s"},
    {"lp.self_s", "s"},
    {"control.ticks", "count"},
    {"control.repins", "count"},
    {"control.plane_events", "count"},
    {"control.churn_skips", "count"},
    {"control.tick_s", "s"},
    {"control.self_s", "s"},
    {"exp.trials", "count"},
    {"exp.report_write_s", "s"},
    {"exp.self_s", "s"},
    {"serve.decode_us", "us"},
    {"serve.hit_rate", "ratio"},
    {"serve.dedup_joins", "count"},
    {"serve.engine_runs", "count"},
    {"serve.hit_ms", "ms"},
    {"serve.engine_ms", "ms"},
    {"serve.rejected_overload", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pnetbench: %s\n"
               "usage: pnetbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n"
               "workloads:",
               why);
  for (const auto& [name, factory] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-ups beyond one per untraced repetition. A set-up takes
/// milliseconds, so one sample per repetition would be mostly scheduler
/// noise; spread over the run, the samples see the same host as run_s.
constexpr int kExtraSetups = 8;

/// This process's peak resident memory in MiB: VmHWM, which the kernel
/// resets at exec (getrusage's ru_maxrss can keep the launcher's peak).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// One offered rate of serve_mix over every repetition of a run. One
/// short phase can pass far above the service's capacity on a moment of
/// fast host; pooled, a rate passes only where the service keeps up.
struct PooledRate {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  std::vector<double> overrun_ms;  // one per repetition
  bool failed = false;

  void add(const RatePhase& phase) {
    latency_ms.insert(latency_ms.end(), phase.latency_ms.begin(),
                      phase.latency_ms.end());
    seconds += phase.seconds;
    overrun_ms.push_back(phase.overrun_ms);
    failed = failed || phase.failed;
  }
};

/// The achieved rate at the highest offered rate whose pooled p99 meets
/// `slo_ms` and whose median backlog at the end of a phase is within it
/// too: no growing backlog (0 when no rate passes). Neither test grows
/// stricter with the number of repetitions.
double max_qps_in_slo(const std::vector<PooledRate>& rates, double slo_ms) {
  double best = 0.0;
  for (const PooledRate& rate : rates) {
    if (!rate.failed && median(rate.overrun_ms) <= slo_ms &&
        percentile(rate.latency_ms, 0.99) <= slo_ms) {
      best = static_cast<double>(rate.latency_ms.size()) / rate.seconds;
    }
  }
  return best;
}

/// Per-layer values of one traced repetition.
std::map<std::string, double> layer_metrics(Tracer& tracer,
                                            const Outcome& out,
                                            double body_from_s,
                                            double run_s) {
  std::map<std::string, double> m = out.layers;
  auto get = [&m](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto self = tracer.self_seconds();
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    m[std::string(layer_name(static_cast<Layer>(l))) + ".self_s"] = self[l];
  }
  m["topo.build_s"] = tracer.total_seconds("topo.build");
  m["routing.hit_rate"] =
      ratio(get("routing.hits"), get("routing.lookups"));
  m["core.harness_build_s"] = tracer.total_seconds("core.harness_build");
  m["core.flow_start_s"] = tracer.total_seconds("core.flow_start");
  m["sim.run_s"] = tracer.total_seconds("sim.run");
  m["sim.run_s.single_path"] = tracer.total_seconds("sim.run", "sp:");
  m["sim.run_s.multipath"] = tracer.total_seconds("sim.run", "mp:");
  m["sim.finalize_s"] = tracer.total_seconds("sim.finalize");
  m["sim.events_per_s"] = ratio(get("sim.events"), get("sim.run_s"));
  // fsim.run spans minus the route computation they caused.
  m["fsim.run_s"] = tracer.total_seconds("fsim.run") -
                    tracer.derived_seconds_under(Layer::kFsim);
  m["fsim.fast_path_ratio"] =
      ratio(get("fsim.fast_paths"), get("fsim.full_solves") +
                                        get("fsim.fast_paths"));
  m["lp.solve_s"] = tracer.total_seconds("lp.max_total_flow");
  m["control.tick_s"] = tracer.total_seconds("control.tick");
  m["exp.report_write_s"] = tracer.total_seconds("exp.write_json");
  m["serve.decode_us"] =
      ratio(tracer.total_seconds("serve.decode_request") * 1e6,
            static_cast<double>(tracer.count("serve.decode_request")));
  m["trace.coverage"] = ratio(tracer.root_seconds_since(body_from_s), run_s);
  m["trace.spans"] = static_cast<double>(tracer.num_spans());
  return m;
}

void print_json_number(const char* name, double value, const char* unit,
                       bool first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
}

int run(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      out_dir.empty()) {
    usage("--seed, --seconds, --trace and --out-dir are required");
  }
  const WorkloadFactory* factory = nullptr;
  for (const auto& [name, f] : workloads()) {
    if (name == workload) factory = &f;
  }
  if (factory == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  const Options options{out_dir};
  const auto started = Clock::now();
  std::vector<double> setup_s, run_s, overhead_s, p50, p99, qps;
  std::vector<PooledRate> pooled;  // serve_mix: each rate over every rep
  double slo_ms = 0.0;
  std::vector<double> samples;  // operations per repetition
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::string> violations;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::unique_ptr<Tracer> last_trace;
  for (int rep = 0; rep < 2 || seconds_since(started) < seconds; ++rep) {
    const bool traced = trace == 1 && rep % 2 == 1;
    for (int i = 0; i < (traced ? 0 : kExtraSetups); ++i) {
      Tracer off(false);
      const auto w = (*factory)(options);
      const auto t0 = Clock::now();
      w->setup(static_cast<std::uint64_t>(seed), off);
      setup_s.push_back(seconds_since(t0));
    }
    auto tracer = std::make_unique<Tracer>(traced);
    const auto w = (*factory)(options);
    const auto t0 = Clock::now();
    w->setup(static_cast<std::uint64_t>(seed), *tracer);
    const double setup = seconds_since(t0);
    const double body_from = tracer->now();
    const auto t1 = Clock::now();
    Outcome out = w->run(*tracer);
    const double body = seconds_since(t1);

    char line[96];
    std::snprintf(line, sizeof line, "rep %d%s: setup %.6f s, run %.6f s",
                  rep, traced ? " (traced)" : "", setup, body);
    notes.emplace_back(line);
    for (const std::string& note : out.notes) {
      notes.push_back("rep " + std::to_string(rep) + ": " + note);
    }
    attempted += out.ops;
    failed += out.failed;
    for (auto& v : out.violations) violations.push_back(std::move(v));
    for (const std::string& key : w->live_counters()) {
      const auto it = out.layers.find(key);
      if (it == out.layers.end() || !(it->second > 0.0)) {
        violations.push_back("liveness: " + key + " is 0 on " + workload);
      }
    }
    if (rep == 0) digest = out.digest;
    if (out.digest != digest) {
      violations.push_back("report digest differs between repetitions" +
                           std::string(traced ? " (traced)" : ""));
    }
    if (traced) {
      overhead_s.push_back(body - run_s.back());
      for (const auto& [k, v] :
           layer_metrics(*tracer, out, body_from, body)) {
        layers[k].push_back(v);
      }
      last_trace = std::move(tracer);
      continue;
    }
    setup_s.push_back(setup);
    run_s.push_back(body);
    if (!out.rates.empty()) {
      pooled.resize(out.rates.size());
      for (std::size_t r = 0; r < out.rates.size(); ++r) {
        pooled[r].add(out.rates[r]);
      }
      slo_ms = out.slo_ms;
    } else {
      // Engine workloads run their operations (trials, sweep points or
      // fault scenarios) one at a time.
      p50.push_back(percentile(out.op_ms, 0.5));
      p99.push_back(percentile(out.op_ms, 0.99));
      qps.push_back(static_cast<double>(out.ops) / body);
      samples.push_back(static_cast<double>(out.op_ms.size()));
    }
  }

  const bool correct = violations.empty();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "pnetbench: %s: %s\n", workload.c_str(), v.c_str());
  }
  std::map<std::string, double> values;
  if (trace == 0) {
    values["setup_s"] = median(setup_s);
    values["run_s"] = median(run_s);
    values["peak_rss_mb"] = peak_rss_mb();
    // An open loop's latencies pool across repetitions; an engine
    // workload's few operations per body do not, so their percentiles are
    // per repetition, then the median.
    if (pooled.empty()) {
      values["p50_ms"] = median(p50);
      values["p99_ms"] = median(p99);
      values["max_qps_in_slo"] = median(qps);
    } else {
      values["p50_ms"] = percentile(pooled.front().latency_ms, 0.5);
      values["p99_ms"] = percentile(pooled.front().latency_ms, 0.99);
      values["max_qps_in_slo"] = max_qps_in_slo(pooled, slo_ms);
    }
  } else {
    for (const auto& [k, v] : layers) values[k] = median(v);
    values["trace.overhead_s"] = median(overhead_s);
    const std::string path = out_dir + "/" + workload + ".trace.json";
    if (last_trace != nullptr && !last_trace->write_chrome_trace(path)) {
      std::fprintf(stderr, "pnetbench: cannot write %s\n", path.c_str());
    }
  }

  // Human-readable summary, then the machine-readable last line.
  std::printf("workload %s seed %lld: %zu repetitions, %s\n",
              workload.c_str(), seed, run_s.size() + overhead_s.size(),
              correct ? "outputs correct" : "OUTPUTS INCORRECT");
  std::printf("  fail_ratio = %.6g (failed %llu / ops %llu)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  report_digest = %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("  latency samples: %zu\n",
              pooled.empty() ? static_cast<std::size_t>(median(samples))
                             : pooled.front().latency_ms.size());
  for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  if (trace == 0) {
    for (const Metric& m : kEndToEnd) {
      std::printf("  %s = %.6g %s\n", m.name, values[m.name], m.unit);
    }
    for (const Metric& m : kUngated) {
      std::printf("  %s = %.6g %s (not gated)\n", m.name, values[m.name],
                  m.unit);
    }
  } else {
    for (const auto& [k, v] : layers) {
      std::printf("  %s = %.6g\n", k.c_str(), median(v));
    }
    std::printf("  trace.overhead_s = %.6g\n", values["trace.overhead_s"]);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (trace == 0) {
    for (const Metric& m : kEndToEnd) {
      print_json_number(m.name, values[m.name], m.unit, first);
      first = false;
    }
  } else {
    for (const Metric& m : kPerLayer) {
      print_json_number(m.name, values[m.name], m.unit, first);
      first = false;
    }
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pnetbench

int main(int argc, char** argv) { return pnetbench::run(argc, argv); }
