// Cross-validation of the flow-level fluid simulator (src/fsim) against
// the packet simulator (src/sim) and the LP throughput solver (src/lp),
// plus the scale demo the fluid model exists for.
//
// Part 1 pins the *same* single ECMP path per permutation flow into all
// three engines on small fat trees. Steady state, the fluid max-min
// minimum rate must equal the LP max-concurrent-flow alpha (they solve the
// same problem when every commodity has one fixed path), and the fluid
// mean FCT must track the packet sim to within the slow-start/queueing
// envelope (a few percent on 50 MB flows where links are genuinely
// shared; see DESIGN.md for the saturated-link caveat). Both engines'
// wall-clocks land in the trial's runtime block; the fluid engine is
// typically 100x+ faster.
//
// Part 2 runs a k=16 fat tree (1024 hosts) with 10k+ flows through the
// fluid engine alone — a size the packet simulator cannot touch — and
// prints the wall-clock.
//
// Part 3 is a 16-trial built-in fluid-engine cell: exp::Runner fans the
// trials over OS threads (one independent simulation per trial, workload
// draws reseeded per trial; results are bit-identical for any --threads).
//
// Usage: bench_fsim_crossval [--hosts=16] [--planes=4] [--seed=1]
//        [--bytes_mb=50] [--bighosts=1024] [--bigrounds=10] [--threads=0]
//        [--skip_big=0] [--eps=0.02]
#include "common.hpp"

using namespace pnet;

namespace {

/// One permutation of `bytes`-sized flows on a fat tree, same pinned
/// single ECMP path per flow in all three engines.
exp::TrialResult cross_validate(topo::NetworkType type, int hosts,
                                int planes, std::uint64_t bytes,
                                double epsilon,
                                const exp::TrialContext& ctx) {
  const auto spec = bench::make_spec(topo::TopoKind::kFatTree, type, hosts,
                                     planes, ctx.seed);
  const auto net = topo::build_network(spec);
  fsim::FsimConfig config;
  config.scheme = fsim::RouteScheme::kEcmpPlaneHash;

  Rng rng(ctx.seed);
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  std::vector<std::vector<routing::Path>> paths;
  std::vector<SimTime> starts;
  paths.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    paths.push_back(fsim::choose_paths(net, config, pairs[i].first,
                                       pairs[i].second,
                                       static_cast<std::uint64_t>(i)));
    // A few microseconds of start jitter, as in any real deployment (and
    // as bench_fig9 does): fully synchronized starts make the packet sim's
    // slow-start overshoots collide into retransmission timeouts.
    starts.push_back(
        static_cast<SimTime>(rng.next_below(10 * units::kMicrosecond)));
  }

  exp::TrialResult r;
  r.flows_started = 2 * pairs.size();  // fluid + packet engines

  // --- LP: max concurrent flow over the pinned paths -------------------
  {
    const lp::LinkIndex index(net);
    std::vector<lp::Commodity> commodities;
    commodities.reserve(pairs.size());
    for (const auto& flow_paths : paths) {
      lp::Commodity commodity;
      commodity.demand = net.plane(0).link_rate_bps;
      for (const auto& path : flow_paths) {
        commodity.paths.push_back(index.to_global(path));
      }
      commodities.push_back(std::move(commodity));
    }
    lp::McfOptions options;
    options.epsilon = epsilon;
    r.metrics["lp_alpha"] =
        lp::max_concurrent_flow(index.capacity(), commodities, options).alpha;
  }

  // --- fluid: steady-state min rate, then run to completion -------------
  {
    bench::WallClock wall;
    fsim::FluidSimulator fluid(net, config);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      fluid.add_flow({pairs[i].first, pairs[i].second, bytes, starts[i]},
                     paths[i]);
    }
    // Settle just past the jitter window: every flow admitted, none done.
    fluid.run_until(10 * units::kMicrosecond);
    r.metrics["fsim_min_frac"] =
        fluid.min_rate_bps() / net.plane(0).link_rate_bps;
    fluid.run();
    r.metrics["fsim_mean_fct_us"] = bench::summarize(fluid.fct_us()).mean;
    r.flows_finished += fluid.results().size();
    r.delivered_bytes += fluid.delivered_bytes();
    r.sim_seconds += units::to_seconds(fluid.now());
    r.events += fluid.events();
    r.runtime["fsim_wall_s"] = wall.seconds();
  }

  // --- packet: same paths, bulk-transfer buffers ------------------------
  {
    bench::WallClock wall;
    core::PolicyConfig policy;  // unused: paths are pinned via the factory
    sim::SimConfig sim_config;
    sim_config.queue_buffer_bytes = 400 * 1500;
    core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});
    std::vector<double> fcts;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      harness.factory().tcp_flow(pairs[i].first, pairs[i].second,
                                 paths[i].front(), bytes, starts[i],
                                 [&fcts](const sim::FlowRecord& rec) {
                                   fcts.push_back(
                                       units::to_microseconds(rec.end -
                                                              rec.start));
                                 });
    }
    harness.run();
    r.metrics["packet_mean_fct_us"] = bench::summarize(fcts).mean;
    r.fct_us = fcts;
    r.flows_finished += fcts.size();
    r.delivered_bytes +=
        static_cast<double>(harness.factory().total_delivered_bytes());
    r.sim_seconds += units::to_seconds(harness.events().now());
    r.events += harness.dispatched();
    r.runtime["packet_wall_s"] = wall.seconds();
  }
  return r;
}

/// Fluid-only scale demo: a k=16 fat tree the packet simulator cannot
/// touch.
exp::TrialResult scale_demo(int big_hosts, int planes, int big_rounds,
                            const exp::TrialContext& ctx) {
  bench::WallClock wall;
  const auto spec = bench::make_spec(
      topo::TopoKind::kFatTree, topo::NetworkType::kParallelHomogeneous,
      big_hosts, planes, ctx.seed);
  const auto net = topo::build_network(spec);
  fsim::FsimConfig config;
  config.scheme = fsim::RouteScheme::kEcmpPlaneHash;
  fsim::FluidSimulator fluid(net, config);
  Rng rng(mix64(ctx.seed + 17));
  exp::TrialResult r;
  for (int round = 0; round < big_rounds; ++round) {
    const SimTime base = round * 200 * units::kMicrosecond;
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      const SimTime jittered = base + static_cast<SimTime>(
          rng.next_below(100 * units::kMicrosecond));
      fluid.add_flow({src, dst, 1'000'000, jittered});
      ++r.flows_started;
    }
  }
  fluid.run();
  r.fct_us = fluid.fct_us();
  r.flows_finished = fluid.results().size();
  r.delivered_bytes = fluid.delivered_bytes();
  r.sim_seconds = units::to_seconds(fluid.now());
  r.events = fluid.events();
  r.metrics["hosts"] = static_cast<double>(net.num_hosts());
  r.metrics["full_solves"] =
      static_cast<double>(fluid.allocator().full_solves());
  r.metrics["fast_paths"] =
      static_cast<double>(fluid.allocator().fast_paths());
  r.runtime["wall_s"] = wall.seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "fsim cross-validation: fluid vs packet sim vs LP", flags,
      "bench_fsim_crossval: fluid-engine cross-validation + scale demo\n"
      "\n"
      "  --hosts=N      hosts for the validation fat trees (default 16)\n"
      "  --planes=N     dataplanes for the parallel configs (default 4)\n"
      "  --bytes_mb=N   flow size for the FCT comparison (default 50)\n"
      "  --eps=F        LP approximation accuracy (default 0.02)\n"
      "  --bighosts=N   hosts for the fluid-only scale demo (default 1024,\n"
      "                 a k=16 fat tree)\n"
      "  --bigrounds=N  permutation rounds in the scale demo (default 10)\n"
      "  --skip_big=1   skip the scale demo (smoke-test runs)\n"
      "  --threads=N    runner worker threads, 0 = all cores (default 0)\n"
      "  --seed=N       base seed (default 1)\n");
  const int hosts = flags.get_int("hosts", 16);
  const int planes = flags.get_int("planes", 4);
  const std::uint64_t bytes = static_cast<std::uint64_t>(
      flags.get_i64("bytes_mb", 50)) * 1'000'000ULL;
  const double epsilon = flags.get_double("eps", 0.02);
  const int big_hosts = flags.get_int("bighosts", 1024);
  const int big_rounds = flags.get_int("bigrounds", 10);
  const bool skip_big = flags.get_int("skip_big", 0) != 0;
  const int threads = flags.get_int("threads", 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  struct Config {
    const char* name;
    topo::NetworkType type;
    int planes;
  };
  const Config configs[] = {
      {"serial fat tree (N=1)", topo::NetworkType::kSerialLow, 1},
      {"parallel hom fat tree", topo::NetworkType::kParallelHomogeneous,
       planes},
  };

  bench::Experiment experiment(flags, "fsim_crossval");
  for (const auto& config : configs) {
    exp::ExperimentSpec spec;
    spec.name = std::string("crossval/") + topo::to_string(config.type);
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    const auto ty = config.type;
    const int pl = config.planes;
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return cross_validate(ty, hosts, pl, bytes, epsilon, ctx);
    });
  }
  if (!skip_big) {
    exp::ExperimentSpec spec;
    spec.name = "scale/" + std::to_string(big_hosts) + "hosts";
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return scale_demo(big_hosts, planes, big_rounds, ctx);
    });
  }
  // Part 3's seed sweep: one built-in fluid-engine cell, 16 trials, each
  // an independent simulation fanned over the runner's threads.
  {
    exp::ExperimentSpec spec;
    spec.name = "sweep/par-hom";
    spec.engine = exp::EngineKind::kFsim;
    spec.topo = bench::make_spec(topo::TopoKind::kFatTree,
                                 topo::NetworkType::kParallelHomogeneous,
                                 hosts, planes, seed);
    spec.policy.policy = core::RoutingPolicy::kEcmp;
    spec.workload.pattern = exp::WorkloadSpec::Pattern::kPermutation;
    spec.workload.flow_bytes = 1'000'000;
    spec.workload.rounds = 1;
    spec.workload.start_jitter = 10 * units::kMicrosecond;
    spec.seed = seed;
    spec.trials = experiment.trials(16);
    experiment.add(std::move(spec));
  }
  const auto results = experiment.run();

  // --- Part 1: three-engine cross-validation ---------------------------
  TextTable table("Permutation cross-check (single pinned ECMP path per "
                  "flow; min-rate and alpha as fraction of plane link "
                  "rate)",
                  {"config", "LP alpha", "fsim min", "fsim FCT us",
                   "pkt FCT us", "FCT ratio", "fsim s", "pkt s",
                   "speedup"});
  double total_fsim_s = 0.0;
  double total_packet_s = 0.0;
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const auto& trial = results[i].trials.front();
    const double fsim_s = trial.runtime.at("fsim_wall_s");
    const double packet_s = trial.runtime.at("packet_wall_s");
    total_fsim_s += fsim_s;
    total_packet_s += packet_s;
    const double fsim_fct = results[i].metric("fsim_mean_fct_us").mean;
    const double packet_fct = results[i].metric("packet_mean_fct_us").mean;
    table.add_row(configs[i].name,
                  {results[i].metric("lp_alpha").mean,
                   results[i].metric("fsim_min_frac").mean, fsim_fct,
                   packet_fct, fsim_fct / packet_fct, fsim_s, packet_s,
                   packet_s / std::max(fsim_s, 1e-9)},
                  3);
  }
  table.print();
  std::printf("engine wall-clock: fsim %.3f s, packet %.3f s -> %.0fx "
              "speedup\n"
              "(On the parallel config most flows run their path at 100%%;\n"
              "the packet sim then pays ACK-path overload and loss-recovery\n"
              "costs the fluid model omits, so its FCTs run 20-30%% higher.\n"
              "Where links are shared the engines agree to a few percent —\n"
              "the serial row, and tests/fsim_test.cpp.)\n\n",
              total_fsim_s, total_packet_s,
              total_packet_s / std::max(total_fsim_s, 1e-9));

  // --- Part 2: fluid-only scale demo -----------------------------------
  std::size_t next = std::size(configs);
  if (!skip_big) {
    const auto& cell = results[next++];
    const auto s = cell.fct();
    std::printf("scale demo: %d hosts (k=%d fat tree), %d planes, %llu "
                "flows\n"
                "  completed in %.2f s wall-clock; mean FCT %.1f us, p99 "
                "%.1f us\n"
                "  allocator: %d full solves, %d fast-path updates\n\n",
                static_cast<int>(cell.metric("hosts").mean),
                topo::fat_tree_k_for_hosts(big_hosts), planes,
                static_cast<unsigned long long>(cell.flows_started()),
                cell.trials.front().runtime.at("wall_s"), s.mean, s.p99,
                static_cast<int>(cell.metric("full_solves").mean),
                static_cast<int>(cell.metric("fast_paths").mean));
  }

  // --- Part 3: multithreaded seed sweep --------------------------------
  {
    const auto& cell = results[next++];
    RunningStats stats;
    for (const auto& trial : cell.trials) {
      stats.add(bench::summarize(trial.fct_us).mean);
    }
    std::printf("seed sweep: %zu independent runs, %.3f s of trial "
                "wall-clock (--threads=%d); mean FCT %.1f +- %.1f us "
                "across seeds\n",
                cell.trials.size(), cell.wall_s(), threads, stats.mean(),
                stats.stddev());
  }
  return experiment.finish();
}
