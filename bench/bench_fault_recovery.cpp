// Dynamic fault recovery: goodput timelines through a mid-run plane flap
// and a lossy-cable episode, serial vs parallel P-Nets (§3.4).
//
// A Jellyfish permutation workload of long bulk flows runs on the serial
// low-bandwidth network (N=1) and on 4-plane homogeneous/heterogeneous
// P-Nets. Mid-run, plane 0 (the only plane, for serial) dies and comes
// back; later a handful of cables run at a packet loss rate for a while.
// End hosts detect the plane outage after a link-status propagation delay
// and repath live flows onto surviving planes — so the P-Nets dip by
// roughly 1/N and close the gap within the detection delay, while the
// serial network collapses to zero for the whole outage. A detection-delay
// sweep at the end shows time-to-recover tracking the delay.
//
// Seven custom-engine cells (3 timeline networks + 4 sweep delays), fanned
// out by exp::Runner. The goodput timeline comes from the harness's
// telemetry::Sampler ("goodput_bps" series, exported in the report's
// telemetry block); the recovery report becomes cell metrics. The
// bulk flows intentionally outlive the horizon (the timeline measures the
// fabric, not flow arrivals), so the cells report no started/finished
// flow counts.
//
// With --inject-trial-faults the bench doubles as the resilience layer's
// end-to-end exercise: three extra cells host a trial that throws once
// (healed by --retries), a trial that always throws, and a trial that
// hangs until the --trial-timeout watchdog fires — so the committed JSON
// sample carries a populated `errors` block with deterministic taxonomy
// entries next to the healthy timeline cells.
//
// Usage: bench_fault_recovery [--hosts=16] [--seed=1] [--fail-rate=0.05]
//                             [--flap-period=20] [--detect-delay=1]
//                             [--inject-trial-faults]
// Run with --help for flag semantics.
#include <atomic>
#include <chrono>
#include <memory>

#include "analysis/recovery.hpp"
#include "common.hpp"
#include "control/link_state_bus.hpp"
#include "core/health_monitor.hpp"
#include "sim/faults.hpp"

using namespace pnet;

namespace {

struct Scenario {
  int hosts = 16;
  bool paper_scale = false;
  double fail_rate = 0.05;
  SimTime flap_down = 20 * units::kMillisecond;
  SimTime detect_delay = units::kMillisecond;

  SimTime horizon = 100 * units::kMillisecond;
  SimTime bucket = 2 * units::kMillisecond;
  SimTime flap_at = 40 * units::kMillisecond;
  SimTime lossy_at = 70 * units::kMillisecond;
  SimTime lossy_duration = 15 * units::kMillisecond;
  int lossy_cables = 3;
};

exp::TrialResult run_network(topo::NetworkType type, const Scenario& sc,
                             SimTime detect_delay,
                             const exp::TrialContext& ctx) {
  auto spec = bench::make_spec(topo::TopoKind::kJellyfish, type, sc.hosts, 4,
                               ctx.seed);
  if (!sc.paper_scale) {
    // Pin a small non-complete Jellyfish (5-regular on 8 switches). The
    // default shape derivation clamps small runs to an 11-switch 10-regular
    // graph — the complete graph, where every seed wires identically and
    // heterogeneous planes degenerate to homogeneous ones.
    spec.jf_switches = 8;
    spec.jf_degree = 5;
    spec.jf_hosts_per_switch = 2;
  }
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;

  // This bench's figure IS a telemetry series: the sampler always runs,
  // on the --sample-every grid when given, else on the scenario's bucket
  // width (the grid the old GoodputProbe used).
  telemetry::Config tcfg = ctx.telemetry;
  if (tcfg.sample_every <= 0) tcfg.sample_every = sc.bucket;
  const auto tel = std::make_shared<telemetry::Telemetry>(tcfg);

  core::SimHarness h({.spec = spec,
                      .policy = policy,
                      .telemetry = tel.get(),
                      .sample_route_cache = true,
                      .sim_threads = ctx.sim_threads});

  core::HealthMonitor monitor(h.events(), {.detect_delay = detect_delay});
  monitor.add_selector(h.selector());
  monitor.set_factory(h.factory());
  monitor.set_trace(&tel->trace);
  h.selector().enable_repath(h.factory());
  sim::FaultInjector injector(h.events(), h.network());
  // Fabric events fan out through the LinkStateBus (DESIGN.md §5j), one
  // observer API shared with route caches and the adaptive controller.
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);

  sim::FaultPlan plan;
  plan.flap_plane(sc.flap_at, sc.flap_down, 0);
  plan.merge(sim::FaultPlan::random_degraded_links(
      h.net(), sc.lossy_cables, sc.lossy_at, sc.lossy_duration, sc.fail_rate,
      1.0, mix64(ctx.seed + 17)));
  injector.arm(plan);

  // Long bulk flows (one per permutation pair) that outlive the horizon,
  // so the timeline measures the fabric, not flow arrivals/departures.
  Rng rng(mix64(ctx.seed + 7));
  for (const auto& [src, dst] :
       workload::permutation_pairs(h.net().num_hosts(), rng)) {
    h.starter()(src, dst, 100 * units::kGB, 0, {});
  }
  h.run_until(sc.horizon);

  exp::TrialResult r;
  // The goodput timeline comes straight off the harness sampler (the
  // "goodput_bps" rate series over delivered bytes); repackage its grid as
  // GoodputProbe samples for the episode analysis.
  const std::vector<double>* goodput = tel->sampler.find("goodput_bps");
  std::vector<analysis::GoodputProbe::Sample> samples;
  if (goodput != nullptr) {
    for (std::size_t i = 0; i < tel->sampler.times().size(); ++i) {
      samples.push_back({tel->sampler.times()[i], (*goodput)[i]});
    }
  }
  const auto episodes =
      analysis::plane_episodes(injector.applied(), monitor.detections());
  // Judge the episode against steady-state buckets only: the slow-start
  // ramp right after t=0 would otherwise drag the baseline down and make
  // any dip look "recovered" immediately.
  std::vector<analysis::GoodputProbe::Sample> steady;
  for (const auto& s : samples) {
    if (s.t_end > sc.flap_at / 2) steady.push_back(s);
  }
  const auto flap = analysis::analyze_episode(steady, episodes.front(),
                                              /*recovered_fraction=*/0.8);
  r.metrics["baseline_gbps"] = flap.baseline_goodput_bps / units::kGbps;
  r.metrics["dip_gbps"] = flap.dip_goodput_bps / units::kGbps;
  r.metrics["detect_ms"] = units::to_milliseconds(flap.time_to_detect);
  r.metrics["recover_ms"] = units::to_milliseconds(flap.time_to_recover);
  r.metrics["packets_lost"] = static_cast<double>(flap.packets_lost);
  int repaths = 0;
  int timeouts = 0;
  for (const auto* src : h.factory().incomplete_tcp_flows()) {
    repaths += src->repaths();
    timeouts += src->timeouts();
  }
  r.metrics["repaths"] = static_cast<double>(repaths);
  r.metrics["timeouts"] = static_cast<double>(timeouts);
  r.delivered_bytes =
      static_cast<double>(h.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(h.events().now());
  r.events = h.dispatched();  // control queue + all shards
  exp::fold_telemetry(tel, r);
  return r;
}

/// The --inject-trial-faults cells: one flaky trial healed by --retries,
/// one deterministic failure, one hang caught by --trial-timeout. Error
/// `what` strings carry no wall-clock values, so the resulting report
/// (with --json-timing=0) stays byte-identical across runs and threads.
void add_injected_fault_cells(bench::Experiment& experiment,
                              std::uint64_t seed) {
  const auto cell_spec = [seed](const char* name) {
    exp::ExperimentSpec spec;
    spec.name = std::string("inject/") + name;
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    return spec;
  };
  const auto healthy = [](const exp::TrialContext& ctx) {
    exp::TrialResult r;
    r.flows_started = 1;
    r.flows_finished = 1;
    r.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFFFF);
    return r;
  };

  // Throws on its first attempt only: with --retries >= 1 the rerun (same
  // seed) succeeds, so this cell proves the retry path and contributes a
  // clean trial to the report.
  auto attempts = std::make_shared<std::atomic<int>>(0);
  experiment.add(cell_spec("flaky-retried"),
                 [=](const exp::TrialContext& ctx) {
                   if (attempts->fetch_add(1) == 0) {
                     throw std::runtime_error(
                         "injected transient fault (first attempt)");
                   }
                   return healthy(ctx);
                 });

  // Always throws: lands in the errors block as kind=exception even with
  // retries (every attempt fails the same way).
  experiment.add(cell_spec("always-throws"),
                 [](const exp::TrialContext&) -> exp::TrialResult {
                   throw std::runtime_error("injected permanent fault");
                 });

  // Spins until the per-trial watchdog fires: lands as kind=timeout. The
  // wall cap keeps the bench finite if run without --trial-timeout.
  experiment.add(cell_spec("hangs-until-timeout"),
                 [=](const exp::TrialContext& ctx) {
                   const auto start = std::chrono::steady_clock::now();
                   while (!ctx.cancel.cancelled() &&
                          std::chrono::steady_clock::now() - start <
                              std::chrono::seconds(10)) {
                   }
                   exp::throw_if_cancelled(ctx.cancel);
                   return healthy(ctx);  // no watchdog armed: wall cap hit
                 });
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Fault recovery: plane flap + lossy-cable episode, serial vs P-Net",
      flags,
      "bench_fault_recovery: goodput dip-and-recover under dynamic faults\n"
      "\n"
      "  --hosts=N         hosts in every network (default 16; 64 with\n"
      "                    --scale=paper)\n"
      "  --seed=N          seed for the Jellyfish wiring, the permutation\n"
      "                    workload, and the lossy-cable draw (default 1)\n"
      "  --fail-rate=F     packet loss probability per degraded cable\n"
      "                    during the lossy episode, 0..1 (default 0.05)\n"
      "  --flap-period=MS  how long plane 0 stays down in the mid-run flap,\n"
      "                    milliseconds (default 20)\n"
      "  --detect-delay=MS link-status propagation delay before hosts react\n"
      "                    to a plane transition; 0 = instantaneous oracle\n"
      "                    (default 1). The sweep at the end varies this.\n"
      "  --inject-trial-faults  add three fault-injection cells (a flaky\n"
      "                    trial healed by --retries, a permanent throw,\n"
      "                    and a hang caught by --trial-timeout) so the\n"
      "                    JSON report exercises the errors block\n");

  Scenario sc;
  sc.paper_scale = flags.paper_scale();
  sc.hosts = flags.get_int("hosts", sc.paper_scale ? 64 : 16);
  sc.fail_rate = flags.get_double("fail-rate", 0.05);
  sc.flap_down = static_cast<SimTime>(
      flags.get_double("flap-period", 20.0) * units::kMillisecond);
  sc.detect_delay = static_cast<SimTime>(
      flags.get_double("detect-delay", 1.0) * units::kMillisecond);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  const topo::NetworkType types[] = {
      topo::NetworkType::kSerialLow,
      topo::NetworkType::kParallelHomogeneous,
      topo::NetworkType::kParallelHeterogeneous,
  };
  const char* names[] = {"serial-low", "par-hom", "par-het"};
  const double sweep_delays_ms[] = {0.0, 1.0, 5.0, 20.0};

  bench::Experiment experiment(flags, "fault_recovery");
  for (std::size_t i = 0; i < std::size(types); ++i) {
    exp::ExperimentSpec spec;
    spec.name = std::string("timeline/") + names[i];
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    const auto type = types[i];
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return run_network(type, sc, sc.detect_delay, ctx);
    });
  }
  for (const double delay_ms : sweep_delays_ms) {
    exp::ExperimentSpec spec;
    spec.name = "sweep/detect=" + format_double(delay_ms, 1) + "ms";
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return run_network(
          topo::NetworkType::kParallelHomogeneous, sc,
          static_cast<SimTime>(delay_ms * units::kMillisecond), ctx);
    });
  }
  const bool inject = flags.get_bool("inject-trial-faults", false);
  if (inject) add_injected_fault_cells(experiment, seed);
  const auto results = experiment.run();

  std::printf("plane 0 down %.0f-%.0f ms; %d cables at %.0f%% loss "
              "%.0f-%.0f ms; detect delay %.1f ms\n\n",
              units::to_milliseconds(sc.flap_at),
              units::to_milliseconds(sc.flap_at + sc.flap_down),
              sc.lossy_cables, sc.fail_rate * 100.0,
              units::to_milliseconds(sc.lossy_at),
              units::to_milliseconds(sc.lossy_at + sc.lossy_duration),
              units::to_milliseconds(sc.detect_delay));

  TextTable timeline("Goodput timeline (Gb/s per bucket)",
                     {"t (ms)", "serial-low", "par-hom", "par-het"});
  const auto t_us = results[0].merged_samples("tm/t_us");
  for (std::size_t b = 1; b < t_us.size(); b += 2) {
    std::vector<double> row;
    for (std::size_t i = 0; i < std::size(types); ++i) {
      row.push_back(results[i].merged_samples("tm/goodput_bps")[b] /
                    units::kGbps);
    }
    timeline.add_row(format_double(t_us[b] / 1000.0, 0), row, 1);
  }
  timeline.print();

  TextTable report("Plane-flap episode recovery",
                   {"network", "baseline Gb/s", "dip Gb/s", "detect (ms)",
                    "recover (ms)", "pkts lost", "repaths"});
  for (std::size_t i = 0; i < std::size(types); ++i) {
    const auto& cell = results[i];
    report.add_row(names[i],
                   {cell.metric("baseline_gbps").mean,
                    cell.metric("dip_gbps").mean,
                    cell.metric("detect_ms").mean,
                    cell.metric("recover_ms").mean,
                    cell.metric("packets_lost").mean,
                    cell.metric("repaths").mean},
                   1);
  }
  report.print();

  TextTable sweep("Detection-delay sweep (par-hom, same flap)",
                  {"detect delay (ms)", "recover (ms)"});
  for (std::size_t i = 0; i < std::size(sweep_delays_ms); ++i) {
    sweep.add_row(format_double(sweep_delays_ms[i], 1),
                  {results[std::size(types) + i].metric("recover_ms").mean},
                  1);
  }
  sweep.print();

  if (inject) {
    TextTable injected("Injected-fault cells (resilience exercise)",
                       {"cell", "ok trials", "errors", "first error"});
    for (std::size_t i = std::size(types) + std::size(sweep_delays_ms);
         i < results.size(); ++i) {
      const auto& cell = results[i];
      injected.add_row(
          {cell.spec.name, std::to_string(cell.trials.size()),
           std::to_string(cell.errors.size()),
           cell.errors.empty() ? "-"
                               : exp::to_string(cell.errors.front().kind)});
    }
    injected.print();
  }

  std::printf(
      "The P-Nets lose ~1/4 of their goodput for about the detection delay\n"
      "and recover by repathing live flows onto the surviving planes; the\n"
      "serial network has nowhere to go and delivers ~0 for the entire\n"
      "outage (plus RTO-backoff tail after recovery). The lossy episode\n"
      "only dents goodput: retransmissions ride the same or other planes.\n");
  return experiment.finish();
}
