// google-benchmark microbenchmarks for the packet simulator: raw event
// throughput, queue+pipe forwarding, and end-to-end simulated-bytes-per-
// wall-second for a TCP transfer — the numbers that bound how large an
// experiment the harness can run.
//
// The telemetry overhead budget lives here too: BM_TcpTransfer10MB is the
// disabled-path baseline (telemetry pointer null, trace macros test a
// pointer), BM_TcpTransfer10MBTelemetry the fully-enabled run (100 us
// sampling grid + tracing). The disabled path must stay within ~2% of a
// build without the telemetry wiring; compare against a pre-telemetry
// checkout when touching the hot paths.
//
// Besides the default google-benchmark mode, `--json[=PATH]` switches to a
// self-contained report mode measuring the data-plane hot path end to end:
// a raw queue+pipe forwarding loop (packets/sec) and a fixed permutation
// TCP scenario (events/sec and bytes/event), plus the slab/arena footprint
// behind them, plus a worker-count scaling sweep (packet_sim_mt: the
// same permutation scenario on a wider multi-plane fabric at
// --sim-threads 1/2/4/8, asserting the dispatched-event count is
// identical across shard worker counts). The result is one JSON document,
// committed as BENCH_micro_sim.json at the repo root; CI's micro-sim-perf
// job re-runs it and fails on a >15% events/sec regression of the
// packet_sim row (one worker), and checks the mt rows still agree on
// events. Report-mode flags:
// --hosts, --planes, --bytes, --repeat, --mt-hosts, --mt-planes,
// --mt-bytes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "core/harness.hpp"
#include "exp/json.hpp"
#include "routing/shortest.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"

namespace {

using namespace pnet;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  class Nop : public sim::EventSource {
   public:
    void do_next_event() override {}
  };
  Nop nop;
  sim::EventQueue events;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      events.schedule_in((i * 37) % 1000, &nop);
    }
    events.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_QueuePipeForwarding(benchmark::State& state) {
  sim::EventQueue events;
  sim::PacketPool pool;
  class Sink : public sim::PacketSink {
   public:
    explicit Sink(sim::PacketPool& pool) : pool_(pool) {}
    void receive(sim::Packet& packet) override { pool_.free(&packet); }

   private:
    sim::PacketPool& pool_;
  };
  Sink sink(pool);
  sim::Queue queue(events, pool, 100e9, 1 << 20);
  sim::Pipe pipe(events, units::kMicrosecond);
  sim::OwnedRoute route({&queue, &pipe, &sink});
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      sim::Packet* p = pool.allocate();
      p->size_bytes = 1500;
      p->route = &route;
      p->next_hop = 0;
      p->forward();
    }
    events.run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_QueuePipeForwarding);

void BM_TcpTransfer10MB(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kShortestPlane;
    core::SimHarness harness({.spec = spec, .policy = policy});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_TcpTransfer10MB)->Unit(benchmark::kMillisecond);

// Same transfer with telemetry fully on: sampling every 100 us of
// simulated time plus flow/fault tracing. The delta over BM_TcpTransfer10MB
// is the enabled-mode cost (sampler probes walk every queue at each grid
// point, so it scales with topology size and grid density).
void BM_TcpTransfer10MBTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kShortestPlane;
    telemetry::Telemetry tel(
        {.sample_every = 100 * units::kMicrosecond, .trace = true});
    core::SimHarness harness(
        {.spec = spec, .policy = policy, .telemetry = &tel});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
    benchmark::DoNotOptimize(tel.sampler.times().size());
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_TcpTransfer10MBTelemetry)->Unit(benchmark::kMillisecond);

void BM_MptcpTransfer10MB(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    spec.parallelism = 4;
    spec.type = topo::NetworkType::kParallelHomogeneous;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = 4;
    core::SimHarness harness({.spec = spec, .policy = policy});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_MptcpTransfer10MB)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- --json report

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One permutation-workload run: every host sends `bytes` to the host half
/// a ring away over a parallel fat tree. Returns {events, wall_s,
/// delivered_bytes, ...} via out-params on the writer caller's stack.
struct SimRun {
  std::uint64_t events = 0;
  double wall_s = 0;
  double delivered = 0;
  std::size_t routes = 0;
  std::size_t route_dedup_hits = 0;
  std::size_t route_arena_bytes = 0;
  std::uint64_t heap_regrowths = 0;
};

SimRun run_permutation(int hosts, int planes, std::uint64_t bytes,
                       int sim_threads = 1) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = hosts;
  spec.parallelism = planes;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  core::SimHarness harness(
      {.spec = spec, .policy = policy, .sim_threads = sim_threads});
  const int n = harness.net().num_hosts();
  const auto t0 = std::chrono::steady_clock::now();
  for (int h = 0; h < n; ++h) {
    harness.starter()(HostId{h}, HostId{(h + n / 2) % n}, bytes, 0, {});
  }
  harness.run();
  SimRun run;
  run.wall_s = seconds_since(t0);
  run.events = harness.dispatched();
  run.delivered =
      static_cast<double>(harness.factory().total_delivered_bytes());
  run.routes = harness.network().routes().num_routes();
  run.route_dedup_hits = harness.network().routes().dedup_hits();
  run.route_arena_bytes = harness.network().routes().arena_bytes();
  // Pool numbers come from the standalone forwarding section; here the
  // heaps' regrowth count covers the control queue and every shard.
  run.heap_regrowths = harness.events().regrowths();
  for (std::size_t i = 0; i < harness.shards()->size(); ++i) {
    run.heap_regrowths += harness.shards()->shard(i).events.regrowths();
  }
  return run;
}

int run_json_report(const Flags& flags) {
  flags.handle_usage(
      "report mode (--json[=PATH], default stdout):\n"
      "  --hosts=N         packet_sim hosts (default 16)\n"
      "  --planes=N        packet_sim planes (default 2)\n"
      "  --bytes=N         packet_sim flow bytes (default 2000000)\n"
      "  --repeat=N        timed passes per row (default 3)\n"
      "  --mt-hosts=N      packet_sim_mt hosts (default 32)\n"
      "  --mt-planes=N     packet_sim_mt planes (default 8)\n"
      "  --mt-bytes=N      packet_sim_mt flow bytes (default 2000000)\n");
  const std::string path = flags.get("json", "-");
  const int hosts = flags.get_int("hosts", 16);
  const int planes = flags.get_int("planes", 2);
  const auto bytes =
      static_cast<std::uint64_t>(flags.get_int("bytes", 2'000'000));
  const int repeat = flags.get_int("repeat", 3);

  exp::JsonWriter w;
  w.begin_object();
  w.field("bench", "micro_sim");
  w.key("config").begin_object();
  w.field("hosts", hosts);
  w.field("planes", planes);
  w.field("bytes", bytes);
  w.field("repeat", repeat);
  w.end_object();

  // Raw data-plane loop: allocate -> queue -> pipe -> free, no transport.
  // Exercises the slab pool, intrusive FIFOs, and batched dispatch alone.
  {
    sim::EventQueue events;
    sim::PacketPool pool;
    struct Sink : sim::PacketSink {
      explicit Sink(sim::PacketPool& pool) : pool_(pool) {}
      void receive(sim::Packet& packet) override { pool_.free(&packet); }
      sim::PacketPool& pool_;
    } sink(pool);
    sim::Queue queue(events, pool, 100e9, 1 << 20);
    sim::Pipe pipe(events, units::kMicrosecond);
    sim::OwnedRoute route({&queue, &pipe, &sink});
    constexpr int kBurst = 256;
    constexpr int kIters = 8192;
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < kIters; ++it) {
      for (int i = 0; i < kBurst; ++i) {
        sim::Packet* p = pool.allocate();
        p->size_bytes = 1500;
        p->route = &route;
        p->next_hop = 0;
        p->forward();
      }
      events.run();
    }
    const double wall_s = seconds_since(t0);
    w.key("forwarding").begin_object();
    w.field("packets", static_cast<std::uint64_t>(kBurst) * kIters);
    w.field("wall_s", wall_s);
    w.field("packets_per_sec",
            wall_s > 0 ? kBurst * static_cast<double>(kIters) / wall_s : 0.0);
    w.field("pool_allocated", pool.allocated());
    w.field("pool_slabs", pool.slabs());
    w.field("pool_slab_bytes", pool.slab_bytes());
    w.end_object();
  }

  // End-to-end permutation scenario; best-of-`repeat` to damp scheduler
  // noise, since CI compares events_per_sec against the committed baseline.
  {
    SimRun best;
    for (int r = 0; r < repeat; ++r) {
      SimRun run = run_permutation(hosts, planes, bytes);
      if (best.wall_s == 0 ||
          static_cast<double>(run.events) / run.wall_s >
              static_cast<double>(best.events) / best.wall_s) {
        best = run;
      }
    }
    const double eps =
        best.wall_s > 0 ? static_cast<double>(best.events) / best.wall_s : 0.0;
    w.key("packet_sim").begin_object();
    w.field("events", best.events);
    w.field("wall_s", best.wall_s);
    w.field("events_per_sec", eps);
    w.field("bytes_per_event",
            best.events > 0 ? best.delivered /
                                  static_cast<double>(best.events)
                            : 0.0);
    w.field("delivered_bytes", best.delivered);
    w.field("routes_interned", best.routes);
    w.field("route_dedup_hits", best.route_dedup_hits);
    w.field("route_arena_bytes", best.route_arena_bytes);
    w.field("event_heap_regrowths", best.heap_regrowths);
    w.end_object();
  }

  // Worker-count scaling sweep: the same permutation scenario on a wider
  // multi-plane fabric, at shard worker counts 1/2/4/8. Dispatched-event
  // counts must agree across every row (the packet engine's determinism
  // contract); speedup is relative to the 1-worker row and is only
  // meaningful when host_cpus covers the worker count.
  {
    const int mt_hosts = flags.get_int("mt-hosts", 32);
    const int mt_planes = flags.get_int("mt-planes", 8);
    const auto mt_bytes =
        static_cast<std::uint64_t>(flags.get_int("mt-bytes", 2'000'000));
    const int worker_counts[] = {1, 2, 4, 8};
    w.key("packet_sim_mt").begin_object();
    w.field("hosts", mt_hosts);
    w.field("planes", mt_planes);
    w.field("bytes", mt_bytes);
    w.field("host_cpus",
            static_cast<int>(std::thread::hardware_concurrency()));
    w.key("rows").begin_array();
    std::uint64_t base_events = 0;
    double base_eps = 0.0;
    bool events_agree = true;
    for (const int workers : worker_counts) {
      SimRun best;
      for (int r = 0; r < repeat; ++r) {
        SimRun run = run_permutation(mt_hosts, mt_planes, mt_bytes, workers);
        if (best.wall_s == 0 ||
            static_cast<double>(run.events) / run.wall_s >
                static_cast<double>(best.events) / best.wall_s) {
          best = run;
        }
      }
      const double eps = best.wall_s > 0
                             ? static_cast<double>(best.events) / best.wall_s
                             : 0.0;
      if (workers == 1) {
        base_events = best.events;
        base_eps = eps;
      } else if (best.events != base_events) {
        events_agree = false;
      }
      w.begin_object();
      w.field("sim_threads", workers);
      w.field("events", best.events);
      w.field("wall_s", best.wall_s);
      w.field("events_per_sec", eps);
      w.field("speedup", base_eps > 0 ? eps / base_eps : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!events_agree) {
      std::fprintf(stderr,
                   "packet_sim_mt: dispatched-event counts diverge across "
                   "sim_threads rows (determinism breach)\n");
      return 1;
    }
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
