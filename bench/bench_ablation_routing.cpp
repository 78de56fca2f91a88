// Ablation: two internal design choices of the routing/transport stack.
//
// (1) KSP tie-breaking. Yen's algorithm with deterministic lexicographic
//     tie-breaks concentrates every flow's K paths on the same corner of an
//     equal-cost-rich fabric; the library jitters the metric per flow. This
//     table shows the LP permutation throughput both ways on a fat tree —
//     the deterministic variant wastes roughly half the fabric.
//
// (2) MPTCP coupling. RFC 6356 Linked Increases is fair at shared
//     bottlenecks but ramps conservatively on disjoint planes; uncoupled
//     subflows are the aggressive opposite. The table shows bulk-transfer
//     completion on 2 disjoint planes and the bottleneck share against a
//     single TCP flow, for both modes.
//
// Four custom-engine cells (2 tie-break modes + 2 coupling modes), fanned
// out by exp::Runner.
//
// Usage: bench_ablation_routing [--hosts=128] [--seed=1]
#include "common.hpp"
#include "routing/shortest.hpp"

using namespace pnet;
using bench::LpScheme;

namespace {

double ksp_throughput(bool jitter, int hosts, std::uint64_t seed) {
  const auto net = topo::build_network(
      bench::make_spec(topo::TopoKind::kFatTree,
                       topo::NetworkType::kSerialLow, hosts, 1, seed));
  const lp::LinkIndex index(net);
  Rng rng(seed);
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  std::vector<lp::Commodity> commodities;
  std::uint64_t flow_id = 0;
  for (const auto& [src, dst] : pairs) {
    lp::Commodity c;
    c.demand = 100e9;
    for (const auto& p : routing::ksp_across_planes(
             net, src, dst, 8, jitter ? mix64(flow_id + 99) : 0)) {
      c.paths.push_back(index.to_global(p));
    }
    commodities.push_back(std::move(c));
    ++flow_id;
  }
  const auto result = lp::max_total_flow(index.capacity(), commodities);
  return result.total_throughput /
         (static_cast<double>(net.num_hosts()) * 100e9);
}

exp::TrialResult run_coupling(sim::Coupling coupling) {
  exp::TrialResult result;
  // Disjoint planes: 50 MB over a 2-plane P-Net.
  {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.type = topo::NetworkType::kParallelHomogeneous;
    spec.hosts = 16;
    spec.parallelism = 2;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = 2;
    policy.coupling = coupling;
    core::SimHarness h({.spec = spec, .policy = policy});
    h.starter()(HostId{0}, HostId{15}, 50'000'000, 0, {});
    h.run();
    result.metrics["disjoint_fct_ms"] = h.logger().fct_us().front() / 1000.0;
    result.events += h.dispatched();
  }
  // Shared bottleneck: 2-subflow MPTCP vs 1 TCP into the same host.
  {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kShortestPlane;
    core::SimHarness h({.spec = spec, .policy = policy});
    auto path_a = routing::shortest_path(h.net().plane(0).graph,
                                         h.net().host_node(0, HostId{0}),
                                         h.net().host_node(0, HostId{15}));
    auto path_b = routing::shortest_path(h.net().plane(0).graph,
                                         h.net().host_node(0, HostId{4}),
                                         h.net().host_node(0, HostId{15}));
    auto& conn = h.factory().mptcp_flow(
        HostId{0}, HostId{15}, {*path_a, *path_a}, 1'000'000'000'000ULL, 0,
        {}, coupling);
    auto& tcp = h.factory().tcp_flow(HostId{4}, HostId{15}, *path_b,
                                     1'000'000'000'000ULL, 0);
    h.run_until(60 * units::kMillisecond);
    double mptcp_bytes = 0;
    for (int i = 0; i < conn.num_subflows(); ++i) {
      mptcp_bytes += static_cast<double>(conn.subflow(i).acked_bytes());
    }
    result.metrics["shared_share"] =
        mptcp_bytes /
        (mptcp_bytes + static_cast<double>(tcp.acked_bytes()));
    result.events += h.dispatched();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Ablation: KSP tie-breaking and MPTCP coupling",
                      flags,
                      "bench_ablation_routing: KSP tie-breaking and MPTCP "
                      "coupling\n"
                      "\n"
                      "  --hosts=N    hosts per network (default 128)\n"
                      "  --seed=N     topology/workload seed (default 1)\n");
  const int hosts = flags.get_int("hosts", 128);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  bench::Experiment experiment(flags, "ablation_routing");
  for (bool jitter : {false, true}) {
    exp::ExperimentSpec spec;
    spec.name = jitter ? "ksp/jittered" : "ksp/lexicographic";
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      exp::TrialResult r;
      r.metrics["norm_tput"] = ksp_throughput(jitter, hosts, ctx.seed);
      return r;
    });
  }
  for (auto mode : {sim::Coupling::kLia, sim::Coupling::kUncoupled}) {
    exp::ExperimentSpec spec;
    spec.name = mode == sim::Coupling::kLia ? "coupling/lia"
                                            : "coupling/uncoupled";
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    experiment.add(std::move(spec),
                   [=](const exp::TrialContext&) { return run_coupling(mode); });
  }
  const auto results = experiment.run();

  TextTable tiebreak("8-way KSP permutation throughput on a serial fat tree "
                     "(fraction of saturation)",
                     {"tie-break", "throughput"});
  tiebreak.add_row("lexicographic (biased)",
                   {results[0].metric("norm_tput").mean});
  tiebreak.add_row("per-flow jittered", {results[1].metric("norm_tput").mean});
  tiebreak.print();

  TextTable coupling("MPTCP coupling: 50 MB over 2 disjoint planes, and "
                     "share vs 1 TCP at a shared bottleneck",
                     {"coupling", "disjoint FCT (ms)",
                      "shared-bottleneck share"});
  for (std::size_t i = 2; i < 4; ++i) {
    coupling.add_row(i == 2 ? "LIA (RFC 6356)" : "uncoupled",
                     {results[i].metric("disjoint_fct_ms").mean,
                      results[i].metric("shared_share").mean},
                     3);
  }
  coupling.print();
  std::printf("LIA trades disjoint-path ramp speed for bottleneck fairness\n"
              "(~0.5 share); uncoupled is faster on disjoint planes but\n"
              "grabs ~2/3 at shared bottlenecks like two parallel TCPs.\n");
  return experiment.finish();
}
