// flow_sweep: the paper's K-scales-with-N sweep at host counts the packet
// engine cannot reach. For each plane count N the fabric's K = 2N shortest
// paths per pair are looked up through a fresh routing::RouteCache, the LP
// bounds the total throughput over exactly those paths, and the fluid
// engine runs a permutation over them (KSP + MPTCP) and over one ECMP path
// per flow. Yen KSP, RouteCache, lp and the fsim water-fill do all the
// work; the packet engine does none. The cache is fresh on every body:
// users pay route computation on every sweep, so it stays in run_s.
#include <cmath>
#include <string>
#include <vector>

#include "fsim/fluid.hpp"
#include "lp/link_index.hpp"
#include "lp/mcf.hpp"
#include "topo/parallel.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "workload/patterns.hpp"

namespace pnetbench {

namespace {

using namespace pnet;

constexpr int kHosts = 192;
constexpr int kPlaneCounts[] = {1, 2, 4};
/// Fabric draws per plane count: Yen's cost depends on the wiring, so two
/// draws halve how much one seed's graphs move run_s.
constexpr int kDraws = 2;
constexpr int kPathsPerPlane = 2;  // K = kPathsPerPlane * N
constexpr std::uint64_t kFlowBytes = 10'000'000;
constexpr double kLpEpsilon = 0.05;

/// fsim's per-pair KSP tie-break seed, so the LP's lookups and the fluid
/// engine's hit the same cache entries (see fsim/fluid.cpp).
std::uint64_t ksp_seed(HostId src, HostId dst) {
  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.v)) << 32) |
      static_cast<std::uint32_t>(dst.v);
  return mix64(pair_key ^ 0xABCD);
}

struct Fabric {
  int planes = 1;
  int k = 1;
  std::unique_ptr<topo::ParallelNetwork> net;
  std::vector<workload::HostPair> pairs;
  std::vector<SimTime> starts;
  exp::ExperimentSpec ksp_spec;  // fluid KSP + MPTCP cell
  exp::ExperimentSpec ecmp_spec;  // fluid single-path cell
  exp::ExperimentSpec lp_spec;    // LP bound cell
};

class FlowSweep final : public Workload {
 public:
  explicit FlowSweep(Options options) : options_(std::move(options)) {}

  void setup(std::uint64_t seed, Tracer& tracer) override {
    for (int d = 0; d < kDraws; ++d) {
      for (const int planes : kPlaneCounts) {
        fabrics_.push_back(make_fabric(seed, d, planes, tracer));
      }
    }
  }


  Outcome run(Tracer& tracer) override {
    Outcome out;
    exp::Report report("flow_sweep");
    // An operation is one sweep point: a fabric's LP bound and both fluid
    // runs over it.
    for (const Fabric& f : fabrics_) {
      const auto t0 = Clock::now();
      ++out.ops;
      // One cache per fabric per sweep, shared by the LP lookups and both
      // fluid cells (the fluid KSP cell hits what the LP computed).
      const auto cache = std::make_shared<routing::RouteCache>();
      const lp::LinkIndex index(*f.net);
      exp::CellResult lp_cell;
      lp_cell.spec = f.lp_spec;
      double lp_bound_bps = 0.0;
      run_cell(out, lp_cell, [&] {
        return run_lp(f, *cache, index, tracer, out, lp_bound_bps);
      });
      exp::CellResult ksp_cell;
      ksp_cell.spec = f.ksp_spec;
      run_cell(out, ksp_cell, [&] {
        return run_fluid(f, f.ksp_spec, cache, tracer, out);
      });
      exp::CellResult ecmp_cell;
      ecmp_cell.spec = f.ecmp_spec;
      run_cell(out, ecmp_cell, [&] {
        return run_fluid(f, f.ecmp_spec, cache, tracer, out);
      });
      // Correctness: the max-min fluid allocation over the KSP paths can
      // not beat the LP optimum over the same paths.
      if (!ksp_cell.trials.empty() && ksp_cell.sim_seconds() > 0.0) {
        const double delivered_bps =
            ksp_cell.delivered_bytes() * 8.0 / ksp_cell.sim_seconds();
        if (delivered_bps > lp_bound_bps / (1.0 - kLpEpsilon)) {
          out.violations.push_back(
              f.ksp_spec.name + ": fluid throughput " +
              std::to_string(delivered_bps) + " bps beats the LP bound " +
              std::to_string(lp_bound_bps) + " bps");
        }
      }
      fold_route_stats(*cache, f.lp_spec.name, tracer, out);
      if (!lp_cell.errors.empty() || !ksp_cell.errors.empty() ||
          !ecmp_cell.errors.empty() || ksp_cell.unfinished_flows() > 0 ||
          ecmp_cell.unfinished_flows() > 0) {
        ++out.failed;
      }
      out.op_ms.push_back(seconds_since(t0) * 1e3);
      report.add(std::move(lp_cell));
      report.add(std::move(ksp_cell));
      report.add(std::move(ecmp_cell));
    }
    out.layers["exp.trials"] = static_cast<double>(3 * fabrics_.size());
    out.digest = write_report(report, options_.out_dir + "/flow_sweep.json",
                              tracer, out);
    return out;
  }

  [[nodiscard]] std::vector<std::string> live_counters() const override {
    return {"routing.lookups", "lp.solves", "fsim.events"};
  }

 private:
  static Fabric make_fabric(std::uint64_t seed, int draw, int planes,
                            Tracer& tracer) {
    Fabric f;
    f.planes = planes;
    f.k = kPathsPerPlane * planes;
    exp::ExperimentSpec spec;
    spec.topo.topo = topo::TopoKind::kJellyfish;
    spec.topo.type = planes == 1 ? topo::NetworkType::kSerialLow
                                 : topo::NetworkType::kParallelHeterogeneous;
    spec.topo.hosts = kHosts;
    spec.topo.parallelism = planes;
    spec.topo.seed =
        draw_seed(seed, static_cast<std::uint64_t>(draw * 16 + planes));
    spec.workload.flow_bytes = kFlowBytes;
    spec.seed = spec.topo.seed;
    std::string name = "d";  // += : see packet_grid.cpp on -Wrestrict
    name += std::to_string(draw);
    name += "/N";
    name += std::to_string(planes);
    name += "/K";
    name += std::to_string(f.k);
    {
      const Tracer::Scope span(tracer, Layer::kTopo, "topo.build", name);
      f.net = std::make_unique<topo::ParallelNetwork>(
          topo::build_network(spec.topo));
    }
    Rng rng(spec.seed);
    f.pairs = workload::permutation_pairs(f.net->num_hosts(), rng);
    for (std::size_t i = 0; i < f.pairs.size(); ++i) {
      f.starts.push_back(static_cast<SimTime>(rng.next_below(
          static_cast<std::uint64_t>(spec.workload.start_jitter))));
    }
    f.ksp_spec = spec;
    f.ksp_spec.name = name + "/fsim-ksp";
    f.ksp_spec.engine = exp::EngineKind::kFsim;
    f.ksp_spec.policy.policy = core::RoutingPolicy::kKspMultipath;
    f.ksp_spec.policy.k = f.k;
    f.ecmp_spec = spec;
    f.ecmp_spec.name = name + "/fsim-ecmp";
    f.ecmp_spec.engine = exp::EngineKind::kFsim;
    f.ecmp_spec.policy.policy = core::RoutingPolicy::kEcmp;
    f.lp_spec = f.ksp_spec;
    f.lp_spec.name = name + "/lp-ksp";
    f.lp_spec.engine = exp::EngineKind::kCustom;
    return f;
  }

  template <class Fn>
  static void run_cell(Outcome& out, exp::CellResult& cell, Fn&& fn) {
    try {
      cell.trials.push_back(fn());
    } catch (const std::exception& e) {
      cell.errors.push_back(
          {exp::TrialErrorKind::kException, e.what(), 0, 0, cell.spec.seed});
      out.violations.push_back(cell.spec.name + ": trial error: " + e.what());
    }
  }

  static exp::TrialResult run_lp(const Fabric& f, routing::RouteCache& cache,
                                 const lp::LinkIndex& index, Tracer& tracer,
                                 Outcome& out, double& bound_bps) {
    std::vector<lp::Commodity> commodities;
    commodities.reserve(f.pairs.size());
    {
      const Tracer::Scope span(tracer, Layer::kRouting, "routing.lookup",
                               f.lp_spec.name);
      for (const auto& [src, dst] : f.pairs) {
        const routing::RouteSnapshot snap = cache.lookup(
            *f.net, routing::RouteQuery::ksp(src, dst, f.k,
                                             ksp_seed(src, dst)));
        lp::Commodity commodity;
        commodity.demand = f.net->host_uplink_bps();
        for (std::size_t i = 0; i < snap->size(); ++i) {
          commodity.paths.push_back(index.to_global(snap->view(i)));
        }
        commodities.push_back(std::move(commodity));
      }
    }
    lp::McfResult result;
    {
      const Tracer::Scope span(tracer, Layer::kLp, "lp.max_total_flow",
                               f.lp_spec.name);
      lp::McfOptions options;
      options.epsilon = kLpEpsilon;
      result = lp::max_total_flow(index.capacity(), commodities, options);
    }
    out.layers["lp.solves"] += 1.0;
    bound_bps = result.total_throughput;
    exp::TrialResult r;
    r.metrics["lp_total_gbps"] = result.total_throughput / 1e9;
    r.metrics["lp_alpha"] = result.alpha;
    return r;
  }

  static exp::TrialResult run_fluid(
      const Fabric& f, const exp::ExperimentSpec& spec,
      const std::shared_ptr<routing::RouteCache>& cache, Tracer& tracer,
      Outcome& out) {
    fsim::FluidSimulator fluid(*f.net,
                               exp::to_fsim_config(spec.policy, kFlowBytes),
                               cache);
    exp::TrialResult r;
    for (std::size_t i = 0; i < f.pairs.size(); ++i) {
      ++r.flows_started;
      fluid.add_flow({f.pairs[i].first, f.pairs[i].second, kFlowBytes,
                      f.starts[i]});
    }
    {
      const Tracer::Scope span(tracer, Layer::kFsim, "fsim.run", spec.name);
      with_route_compute(*cache, tracer, [&] { fluid.run(); });
    }
    for (const double fct : fluid.fct_us()) r.fct_us.push_back(fct);
    r.flows_finished = fluid.results().size();
    r.delivered_bytes = fluid.delivered_bytes();
    r.sim_seconds = units::to_seconds(fluid.now());
    r.events = fluid.events();
    const double expected = static_cast<double>(r.flows_started) *
                            static_cast<double>(kFlowBytes);
    if (r.flows_finished != r.flows_started) {
      out.violations.push_back(spec.name + ": " +
                               std::to_string(r.unfinished_flows()) +
                               " flows unfinished");
    }
    // Fluid bytes drain in floating point: conserved to rounding.
    if (std::abs(r.delivered_bytes - expected) > 1e-6 * expected) {
      out.violations.push_back(spec.name + ": delivered " +
                               std::to_string(r.delivered_bytes) +
                               " bytes, expected " + std::to_string(expected));
    }
    auto& m = out.layers;
    m["fsim.events"] += static_cast<double>(r.events);
    m["fsim.full_solves"] +=
        static_cast<double>(fluid.allocator().full_solves());
    m["fsim.fast_paths"] +=
        static_cast<double>(fluid.allocator().fast_paths());
    return r;
  }

  Options options_;
  std::vector<Fabric> fabrics_;
};

}  // namespace

std::unique_ptr<Workload> make_flow_sweep(const Options& options) {
  return std::make_unique<FlowSweep>(options);
}

}  // namespace pnetbench
