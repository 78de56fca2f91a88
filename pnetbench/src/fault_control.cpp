// fault_control: a plane flap plus cable flaps under the centralized
// controller, in both engines. The packet side wires the fault injector
// through a control::LinkStateBus into the health monitor, the route
// cache (RouteCache::set_link_state invalidation and recompute) and the
// controller; the fluid side flaps the plane and calls the controller
// from its event loop. So routing is written here as well as read: a gain
// on the lookup path that costs the invalidation path shows on this
// workload. Flows are long and run to a fixed simulated horizon; the
// bytes they deliver by then are the result, not a failure.
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/dataplanes.hpp"
#include "control/link_state_bus.hpp"
#include "core/harness.hpp"
#include "core/health_monitor.hpp"
#include "fsim/fluid.hpp"
#include "sim/faults.hpp"
#include "topo/parallel.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "workload/patterns.hpp"

namespace pnetbench {

namespace {

using namespace pnet;

/// Fault scenarios per body. Which cables flap decides how many drops and
/// timeouts a trial sees, so one scenario's host time swings with the
/// seed; twelve keep the body's total within a few percent across seeds.
constexpr int kDraws = 12;
constexpr std::uint64_t kFlowBytes = 100 * units::kGB;  // never finishes
constexpr SimTime kHorizon = 15 * units::kMillisecond;
constexpr SimTime kFlapAt = 4 * units::kMillisecond;
constexpr SimTime kFlapDown = 5 * units::kMillisecond;
constexpr int kFlappingCables = 24;
constexpr SimTime kCableStart = 2 * units::kMillisecond;
constexpr SimTime kCableSpan = 10 * units::kMillisecond;
constexpr SimTime kCablePeriod = 2500 * units::kMicrosecond;
constexpr SimTime kCableDown = 1 * units::kMillisecond;

/// bench_ablation_controller's flap fabric: 16 hosts on a small Jellyfish,
/// four homogeneous planes, here at 10 Gb/s so a packet trial stays well
/// under a second of host time.
topo::NetworkSpec fabric(std::uint64_t seed) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;
  spec.seed = seed;
  spec.base_rate_bps = 10e9;
  spec.jf_switches = 8;
  spec.jf_degree = 5;
  spec.jf_hosts_per_switch = 2;
  return spec;
}

struct Trial {
  exp::ExperimentSpec spec;
  std::unique_ptr<topo::ParallelNetwork> net;  // fluid trials only
  std::vector<workload::HostPair> pairs;
  sim::FaultPlan faults;  // packet trials only
};

void fold_controller(const control::Controller& ctl, exp::TrialResult& r,
                     Outcome& out) {
  r.metrics["ctl/ticks"] = static_cast<double>(ctl.ticks());
  r.metrics["ctl/repins"] = static_cast<double>(ctl.repins());
  r.metrics["ctl/plane_events"] = static_cast<double>(ctl.plane_events());
  r.metrics["ctl/churn_skips"] = static_cast<double>(ctl.churn_skips());
  out.layers["control.ticks"] += r.metrics["ctl/ticks"];
  out.layers["control.repins"] += r.metrics["ctl/repins"];
  out.layers["control.plane_events"] += r.metrics["ctl/plane_events"];
  out.layers["control.churn_skips"] += r.metrics["ctl/churn_skips"];
}

class FaultControl final : public Workload {
 public:
  explicit FaultControl(Options options) : options_(std::move(options)) {}

  void setup(std::uint64_t seed, Tracer& tracer) override {
    control::ControllerConfig cc;
    cc.mode = control::ControllerMode::kCentralized;
    for (int d = 0; d < kDraws; ++d) {
      for (const bool packet : {true, false}) {
        Trial t;
        t.spec.name = std::string(packet ? "packet" : "fsim") + "/d" +
                      std::to_string(d);
        t.spec.topo = fabric(draw_seed(seed, static_cast<std::uint64_t>(d)));
        t.spec.engine = packet ? exp::EngineKind::kPacket
                               : exp::EngineKind::kFsim;
        t.spec.policy.policy = packet ? core::RoutingPolicy::kRoundRobin
                                      : core::RoutingPolicy::kEcmp;
        t.spec.workload.flow_bytes = kFlowBytes;
        t.spec.deadline = kHorizon;
        t.spec.controller = cc;
        t.spec.seed = draw_seed(t.spec.topo.seed, 7);
        topo::ParallelNetwork net = [&] {
          const Tracer::Scope span(tracer, Layer::kTopo, "topo.build",
                                   t.spec.name);
          return topo::build_network(t.spec.topo);
        }();
        Rng rng(t.spec.seed);
        t.pairs = workload::permutation_pairs(net.num_hosts(), rng);
        if (packet) {
          t.faults = sim::FaultPlan::random_link_flaps(
              net, kFlappingCables, kCableStart, kCableSpan, kCablePeriod,
              kCableDown, t.spec.seed);
          t.faults.flap_plane(kFlapAt, kFlapDown, 0);
        } else {
          t.net = std::make_unique<topo::ParallelNetwork>(std::move(net));
        }
        trials_.push_back(std::move(t));
      }
    }
  }

  Outcome run(Tracer& tracer) override {
    Outcome out;
    exp::Report report("fault_control");
    // An operation is one fault scenario run on both engines: setup()
    // stores each draw's packet trial followed by its fluid trial.
    for (std::size_t i = 0; i < trials_.size(); i += 2) {
      const auto t0 = Clock::now();
      ++out.ops;
      bool failed = false;
      for (const Trial* t : {&trials_[i], &trials_[i + 1]}) {
        exp::CellResult cell;
        cell.spec = t->spec;
        try {
          cell.trials.push_back(t->net == nullptr
                                    ? run_packet(*t, tracer, out)
                                    : run_fluid(*t, tracer, out));
        } catch (const std::exception& e) {
          cell.errors.push_back({exp::TrialErrorKind::kException, e.what(),
                                 0, 0, t->spec.seed});
          out.violations.push_back(t->spec.name + ": trial error: " +
                                   e.what());
          failed = true;
        }
        report.add(std::move(cell));
      }
      if (failed) ++out.failed;
      out.op_ms.push_back(seconds_since(t0) * 1e3);
    }
    out.layers["exp.trials"] = static_cast<double>(trials_.size());
    out.digest = write_report(
        report, options_.out_dir + "/fault_control.json", tracer, out);
    return out;
  }

  [[nodiscard]] std::vector<std::string> live_counters() const override {
    return {"routing.invalidations", "control.ticks"};
  }

 private:
  static exp::TrialResult run_packet(const Trial& t, Tracer& tracer,
                                     Outcome& out) {
    const control::ControllerConfig& cc = t.spec.controller;
    // Round-robin routes single-path TCP: sim.run_s.single_path.
    const std::string tag = "sp:" + t.spec.name;
    std::unique_ptr<core::SimHarness> harness;
    {
      const Tracer::Scope span(tracer, Layer::kCore, "core.harness_build",
                               tag);
      harness = std::make_unique<core::SimHarness>(core::SimHarness::Options{
          .spec = t.spec.topo, .policy = t.spec.policy});
    }
    core::SimHarness& h = *harness;
    routing::RouteCache& routes = h.selector().route_cache();
    h.selector().enable_repath(h.factory());
    core::HealthMonitor monitor(h.events(), {.detect_delay = cc.detect_delay});
    monitor.add_selector(h.selector());
    monitor.set_factory(h.factory());
    sim::FaultInjector injector(h.events(), h.network());
    routes.bind(h.net());
    control::LinkStateBus bus;
    bus.subscribe_health_monitor(monitor);
    bus.subscribe_route_cache(routes);
    bus.attach(injector);
    control::PacketDataplane dataplane(h);
    control::Controller controller(cc, dataplane);
    controller.observe(bus);
    control::ControlDriver driver(h.events(), controller, cc.cadence);
    if (sim::ShardSet* shards = h.shards(); shards != nullptr) {
      driver.set_more_work([shards] { return shards->busy(); });
    }
    driver.start(h.events().now());
    injector.arm(t.faults);

    exp::TrialResult r;
    {
      const Tracer::Scope span(tracer, Layer::kCore, "core.flow_start",
                               tag);
      with_route_compute(routes, tracer, [&] {
        for (const auto& [src, dst] : t.pairs) {
          ++r.flows_started;
          h.starter()(src, dst, kFlowBytes, 0,
                      [&r](const sim::FlowRecord&) { ++r.flows_finished; });
        }
      });
    }
    {
      const Tracer::Scope span(tracer, Layer::kSim, "sim.run", tag);
      with_route_compute(routes, tracer, [&] { h.run_until(kHorizon); });
    }
    {
      const Tracer::Scope span(tracer, Layer::kSim, "sim.finalize",
                               tag);
      h.finalize(h.events().now());
    }
    r.delivered_bytes =
        static_cast<double>(h.factory().total_delivered_bytes());
    r.sim_seconds = units::to_seconds(h.events().now());
    r.events = h.dispatched();
    r.metrics["drops"] = static_cast<double>(h.network().total_drops());
    r.metrics["retransmits"] = h.logger().total_retransmits();
    r.metrics["timeouts"] = h.logger().total_timeouts();
    fold_controller(controller, r, out);

    // Correctness: finalize logs every launched flow exactly once, and the
    // logged bytes add up to what the transport delivered.
    const auto& records = h.logger().records();
    double logged = 0.0;
    for (const sim::FlowRecord& rec : records) {
      logged += static_cast<double>(rec.delivered_bytes);
    }
    if (records.size() != r.flows_started) {
      out.violations.push_back(t.spec.name + ": " +
                               std::to_string(records.size()) +
                               " flow records for " +
                               std::to_string(r.flows_started) + " flows");
    }
    if (logged != r.delivered_bytes) {
      out.violations.push_back(t.spec.name + ": flow records hold " +
                               std::to_string(logged) + " bytes, transport " +
                               std::to_string(r.delivered_bytes));
    }
    if (injector.events_pending() != 0) {
      out.violations.push_back(t.spec.name + ": faults left unapplied");
    }

    auto& m = out.layers;
    m["sim.events"] += static_cast<double>(r.events);
    m["sim.drops"] += r.metrics["drops"];
    m["sim.retransmits"] += r.metrics["retransmits"];
    m["sim.timeouts"] += r.metrics["timeouts"];
    m["sim.heap_regrowths"] += static_cast<double>(h.events().regrowths());
    m["sim.routes_interned"] +=
        static_cast<double>(h.network().routes().num_routes());
    m["sim.route_dedup_hits"] +=
        static_cast<double>(h.network().routes().dedup_hits());
    fold_route_stats(routes, t.spec.name, tracer, out);
    return r;
  }

  static exp::TrialResult run_fluid(const Trial& t, Tracer& tracer,
                                    Outcome& out) {
    const control::ControllerConfig& cc = t.spec.controller;
    const auto cache = std::make_shared<routing::RouteCache>();
    fsim::FluidSimulator fluid(*t.net, exp::to_fsim_config(t.spec.policy),
                               cache);
    control::LinkStateBus bus;
    bus.attach(fluid);
    control::FluidDataplane dataplane(fluid);
    control::Controller controller(cc, dataplane);
    controller.observe(bus);
    controller.start(fluid.now());
    fluid.set_control(cc.cadence, [&controller, &tracer, &t](SimTime now) {
      const Tracer::Scope span(tracer, Layer::kControl, "control.tick",
                               t.spec.name);
      controller.tick(now);
    });
    fluid.fail_plane(kFlapAt, kFlapAt + kFlapDown, 0);

    exp::TrialResult r;
    for (const auto& [src, dst] : t.pairs) {
      ++r.flows_started;
      fluid.add_flow({src, dst, kFlowBytes, 0});
    }
    {
      const Tracer::Scope span(tracer, Layer::kFsim, "fsim.run", t.spec.name);
      with_route_compute(*cache, tracer, [&] { fluid.run_until(kHorizon); });
    }
    r.flows_finished = fluid.results().size();
    r.delivered_bytes = fluid.delivered_bytes();
    r.sim_seconds = units::to_seconds(fluid.now());
    r.events = fluid.events();
    fold_controller(controller, r, out);

    // Correctness: no fluid flow outruns its demand, and after the plane
    // recovered no subflow is left on a plane the fabric reports down.
    const double demand = static_cast<double>(r.flows_started) *
                          static_cast<double>(kFlowBytes);
    if (!(r.delivered_bytes > 0.0 && r.delivered_bytes <= demand)) {
      out.violations.push_back(t.spec.name + ": delivered " +
                               std::to_string(r.delivered_bytes) + " bytes");
    }
    for (const int plane : fluid.active_subflow_planes()) {
      if (fluid.plane_down(plane)) {
        out.violations.push_back(t.spec.name + ": subflow on down plane " +
                                 std::to_string(plane));
        break;
      }
    }

    auto& m = out.layers;
    m["fsim.events"] += static_cast<double>(r.events);
    m["fsim.full_solves"] +=
        static_cast<double>(fluid.allocator().full_solves());
    m["fsim.fast_paths"] +=
        static_cast<double>(fluid.allocator().fast_paths());
    fold_route_stats(*cache, t.spec.name, tracer, out);
    return r;
  }

  Options options_;
  std::vector<Trial> trials_;
};

}  // namespace

std::unique_ptr<Workload> make_fault_control(const Options& options) {
  return std::make_unique<FaultControl>(options);
}

}  // namespace pnetbench
