// The benchmark's workloads and what one execution of a workload body
// reports back to main.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "routing/route_cache.hpp"
#include "trace.hpp"

namespace pnetbench {

/// serve_mix: one offered rate of an open loop, in one repetition.
struct RatePhase {
  /// Every query's latency, from its due time to its reply.
  std::vector<double> latency_ms;
  /// From the first query's due time to the last reply.
  double seconds = 0.0;
  /// How long after the last query's due time the last reply came: the
  /// backlog the phase left behind.
  double overrun_ms = 0.0;
  /// A query of the phase errored or was refused.
  bool failed = false;
};

/// One execution of a workload body.
struct Outcome {
  /// Operations attempted: trials on the engine workloads, queries on
  /// serve_mix. The base of fail_ratio.
  std::uint64_t ops = 0;
  /// Operations that errored, timed out, were refused, broke an invariant,
  /// or left flows unfinished where the workload expects completion.
  std::uint64_t failed = 0;
  /// Correctness-gate breaches; any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// FNV-1a of the timing-free report (0 where the workload has none).
  std::uint64_t digest = 0;
  /// Host latency of each operation, milliseconds.
  std::vector<double> op_ms;
  /// serve_mix: its offered rates, nominal first. main.cpp pools each
  /// rate's phases over every repetition of the run: p50_ms and p99_ms are
  /// the percentiles of the nominal rate's latencies, and max_qps_in_slo
  /// the achieved rate at the highest offered rate whose pooled p99 and
  /// median backlog are within `slo_ms`.
  std::vector<RatePhase> rates;
  double slo_ms = 0.0;
  /// Per-layer counters and timings the workload reads from the modules.
  std::map<std::string, double> layers;
  /// Extra human-readable result lines (serve_mix: one per offered rate).
  std::vector<std::string> notes;
};

struct Options {
  /// Directory (inside the checkout) for reports the body writes.
  std::string out_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed`; timed as setup_s.
  virtual void setup(std::uint64_t seed, Tracer& tracer) = 0;
  /// Runs the fixed body once; timed as run_s.
  virtual Outcome run(Tracer& tracer) = 0;
  /// Per-layer counters this workload exists to exercise: each must be
  /// nonzero after every body, or the run fails (the liveness guard).
  [[nodiscard]] virtual std::vector<std::string> live_counters() const = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>(const Options&)>;

/// Workload name -> factory, in the order the benchmark runs them.
[[nodiscard]] const std::vector<std::pair<std::string, WorkloadFactory>>&
workloads();

std::unique_ptr<Workload> make_packet_grid(const Options& options);
std::unique_ptr<Workload> make_flow_sweep(const Options& options);
std::unique_ptr<Workload> make_fault_control(const Options& options);
std::unique_ptr<Workload> make_serve_mix(const Options& options);

// ------------------------------------------------------------- helpers

/// Writes `report` without its runtime blocks (the deterministic bytes)
/// inside an exp.write_json span and returns the FNV-1a digest of what
/// was written; records the violation when the file cannot be written.
std::uint64_t write_report(const pnet::exp::Report& report,
                           const std::string& path, Tracer& tracer,
                           Outcome& outcome);

/// Adds a route cache's counters into routing.* layer metrics (read
/// inside a routing.stats span). main.cpp derives the hit rate.
void fold_route_stats(pnet::routing::RouteCache& cache,
                      const std::string& tag, Tracer& tracer,
                      Outcome& outcome);

/// Route computation a call into another layer caused: compute_ns of
/// `cache` is sampled around `fn` (traced runs only) and attached to the
/// caller's open span as a derived routing child.
void with_route_compute(pnet::routing::RouteCache& cache, Tracer& tracer,
                        const std::function<void()>& fn);

/// Nearest-rank percentile `q` in [0, 1] of `values` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Seed of draw `index` of a workload seeded with `seed`.
[[nodiscard]] std::uint64_t draw_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace pnetbench
