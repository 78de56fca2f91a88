// Tests for the closed-loop workload of exp::WorkloadSpec: the spec rows
// and their validation, and the equivalence that let the closed-loop
// benches (Fig 10/Table 2, Fig 11, Fig 13, Appendix A and the policy
// ablation) become specs. `reference` keeps the trial bodies those benches
// ran before, verbatim; each shape runs once through them and once as a
// spec through exp::PacketEngine, on the same topology seed, and every
// result field they set must match exactly.
#include <gtest/gtest.h>

#include <string>

#include "core/harness.hpp"
#include "exp/engine.hpp"
#include "exp/json.hpp"
#include "util/parallel.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"
#include "workload/traces.hpp"

namespace pnet {
namespace reference {

inline topo::NetworkSpec make_spec(topo::TopoKind kind,
                                   topo::NetworkType type, int hosts,
                                   int parallelism, std::uint64_t seed) {
  topo::NetworkSpec spec;
  spec.topo = kind;
  spec.type = type;
  spec.hosts = hosts;
  spec.parallelism = parallelism;
  spec.seed = seed;
  return spec;
}

// bench_fig10_table2
exp::TrialResult run_fig10_rpcs(topo::NetworkType type, int hosts,
                                int planes, std::uint64_t rpc_bytes,
                                int rounds, const exp::TrialContext& ctx) {
  const auto spec = make_spec(topo::TopoKind::kJellyfish, type,
                              hosts, planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;  // single path
  core::SimHarness harness({.spec = spec, .policy = policy});

  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 1;
  config.response_bytes = rpc_bytes;
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [rpc_bytes](Rng&) { return rpc_bytes; });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.events().dispatched();
  return r;
}

// bench_fig11
exp::TrialResult run_fig11_rpcs(topo::NetworkType type, int hosts,
                                int planes, int concurrent, int rounds,
                                const exp::TrialContext& ctx) {
  const auto spec = make_spec(topo::TopoKind::kJellyfish, type,
                              hosts, planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  core::SimHarness harness({.spec = spec, .policy = policy});

  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = concurrent;
  config.response_bytes = 1500;  // small ack-sized reply
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [](Rng&) { return std::uint64_t{100'000}; });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    static_cast<std::uint64_t>(concurrent) *
                    static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.events().dispatched();
  r.metrics["drops"] = static_cast<double>(harness.network().total_drops());
  r.metrics["timeouts"] =
      static_cast<double>(harness.logger().total_timeouts());
  return r;
}

// bench_fig13
exp::TrialResult run_fig13_trace(topo::NetworkType type,
                                 workload::Trace trace, int hosts, int planes,
                                 int rounds, std::uint64_t cap_bytes,
                                 const exp::TrialContext& ctx) {
  const auto spec = make_spec(topo::TopoKind::kJellyfish, type,
                              hosts, planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;  // single path, §5.3
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  const auto& dist = workload::FlowSizeDistribution::of(trace);
  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 4;  // saturating closed loop, §5.3
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [&dist, cap_bytes](Rng& rng) { return dist.sample(rng, cap_bytes); });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    4ULL * static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.events().dispatched();
  return r;
}

// bench_appendix
exp::TrialResult run_appendix_config(topo::TopoKind kind,
                                     topo::NetworkType type,
                                     workload::Trace trace, int hosts,
                                     double base_rate, int rounds,
                                     std::uint64_t cap_bytes,
                                     const exp::TrialContext& ctx) {
  auto spec = make_spec(kind, type, hosts, 4, ctx.seed);
  spec.base_rate_bps = base_rate;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  const auto& dist = workload::FlowSizeDistribution::of(trace);
  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 2;
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [&dist, cap_bytes](Rng& rng) { return dist.sample(rng, cap_bytes); });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    2ULL * static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.events().dispatched();
  return r;
}

// bench_ablation_policies
exp::TrialResult run_policy(core::RoutingPolicy policy_kind, int hosts,
                            int planes, std::uint64_t flow_bytes, int rounds,
                            const exp::TrialContext& ctx) {
  const auto spec =
      make_spec(topo::TopoKind::kJellyfish,
                topo::NetworkType::kParallelHeterogeneous, hosts,
                planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = policy_kind;
  policy.k = planes;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 2;
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [flow_bytes](Rng&) { return flow_bytes; });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    2ULL * static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.events().dispatched();
  return r;
}

}  // namespace reference

namespace exp {
namespace {

constexpr std::uint64_t kSeed = 3;

/// A closed-loop packet spec as the benches build it: shortest-plane
/// routing, topology wired with trial 0's seed.
ExperimentSpec closed_loop(topo::TopoKind kind, topo::NetworkType type,
                           int hosts, int planes, int concurrent,
                           int rounds) {
  ExperimentSpec spec;
  spec.name = "closed-loop";
  spec.topo = reference::make_spec(kind, type, hosts, planes,
                                   util::job_seed(kSeed, 0));
  spec.policy.policy = core::RoutingPolicy::kShortestPlane;
  spec.workload.pattern = WorkloadSpec::Pattern::kClosedLoop;
  spec.workload.concurrent = concurrent;
  spec.workload.rounds = rounds;
  spec.workload.start_jitter = 0;
  spec.seed = kSeed;
  return spec;
}

/// Runs `spec` through the packet engine and `body` on trial 0's context;
/// every field the reference body sets must match exactly.
template <class Body>
void expect_equivalent(const ExperimentSpec& spec, Body body,
                       bool with_loss_metrics) {
  ASSERT_EQ(spec.validate(), "");
  PacketEngine engine;
  const CellResult cell = engine.run(spec, {});
  ASSERT_EQ(cell.trials.size(), 1u);
  const TrialResult& got = cell.trials.front();
  const TrialResult want =
      body(TrialContext{spec, 0, util::job_seed(spec.seed, 0), nullptr});

  EXPECT_EQ(got.fct_us, want.fct_us);
  EXPECT_EQ(got.flows_started, want.flows_started);
  EXPECT_EQ(got.flows_finished, want.flows_finished);
  EXPECT_EQ(got.delivered_bytes, want.delivered_bytes);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_GT(want.flows_finished, 0u);
  // The reference bodies counted the control queue only; the engine
  // counts every shard too.
  EXPECT_GT(got.events, want.events);
  if (with_loss_metrics) {
    EXPECT_GT(want.metrics.at("drops"), 0.0);  // the shape does lose packets
    EXPECT_EQ(got.metrics.at("drops"), want.metrics.at("drops"));
    EXPECT_EQ(got.metrics.at("timeouts"), want.metrics.at("timeouts"));
  }
}

TEST(ClosedLoopSpec, Fig10RpcMatchesReferenceBody) {
  const auto type = topo::NetworkType::kParallelHeterogeneous;
  ExperimentSpec spec =
      closed_loop(topo::TopoKind::kJellyfish, type, 16, 4, 1, 6);
  spec.workload.flow_bytes = 1500;
  spec.workload.response_bytes = 1500;
  expect_equivalent(
      spec,
      [&](const TrialContext& ctx) {
        return reference::run_fig10_rpcs(type, 16, 4, 1500, 6, ctx);
      },
      false);
}

TEST(ClosedLoopSpec, Fig11ConcurrentRpcsMatchReferenceBody) {
  const auto type = topo::NetworkType::kSerialLow;
  ExperimentSpec spec =
      closed_loop(topo::TopoKind::kJellyfish, type, 16, 2, 6, 2);
  spec.workload.flow_bytes = 100'000;
  spec.workload.response_bytes = 1500;
  expect_equivalent(
      spec,
      [&](const TrialContext& ctx) {
        return reference::run_fig11_rpcs(type, 16, 2, 6, 2, ctx);
      },
      true);
}

TEST(ClosedLoopSpec, Fig13CappedTraceMatchesReferenceBody) {
  const auto type = topo::NetworkType::kParallelHomogeneous;
  const auto trace = workload::Trace::kWebSearch;
  ExperimentSpec spec =
      closed_loop(topo::TopoKind::kJellyfish, type, 16, 2, 4, 2);
  spec.workload.size_trace = trace;
  spec.workload.size_cap_bytes = 1'000'000;
  spec.sim.queue_buffer_bytes = 400 * 1500;
  expect_equivalent(
      spec,
      [&](const TrialContext& ctx) {
        return reference::run_fig13_trace(type, trace, 16, 2, 2, 1'000'000,
                                          ctx);
      },
      false);
}

TEST(ClosedLoopSpec, AppendixFatTreeAt10GMatchesReferenceBody) {
  const auto type = topo::NetworkType::kParallelHomogeneous;
  const auto trace = workload::Trace::kWebServer;
  ExperimentSpec spec =
      closed_loop(topo::TopoKind::kFatTree, type, 16, 4, 2, 3);
  spec.topo.base_rate_bps = 10e9;
  spec.workload.size_trace = trace;
  spec.workload.size_cap_bytes = 8'000'000;
  spec.sim.queue_buffer_bytes = 400 * 1500;
  expect_equivalent(
      spec,
      [&](const TrialContext& ctx) {
        return reference::run_appendix_config(topo::TopoKind::kFatTree, type,
                                              trace, 16, 10e9, 3, 8'000'000,
                                              ctx);
      },
      false);
}

TEST(ClosedLoopSpec, KspPolicyMatchesReferenceBody) {
  ExperimentSpec spec =
      closed_loop(topo::TopoKind::kJellyfish,
                  topo::NetworkType::kParallelHeterogeneous, 16, 4, 2, 3);
  spec.policy.policy = core::RoutingPolicy::kKspMultipath;
  spec.policy.k = 4;
  spec.workload.flow_bytes = 20'000;
  spec.sim.queue_buffer_bytes = 400 * 1500;
  expect_equivalent(
      spec,
      [&](const TrialContext& ctx) {
        return reference::run_policy(core::RoutingPolicy::kKspMultipath, 16,
                                     4, 20'000, 3, ctx);
      },
      false);
}

TEST(ClosedLoopSpec, ValidateKeepsTheRowsToThePacketClosedLoop) {
  ExperimentSpec spec = closed_loop(topo::TopoKind::kJellyfish,
                                    topo::NetworkType::kSerialLow, 16, 2, 2,
                                    2);
  EXPECT_EQ(spec.validate(), "");

  ExperimentSpec fluid = spec;
  fluid.engine = EngineKind::kFsim;
  EXPECT_NE(fluid.validate().find("needs engine packet"), std::string::npos);

  ExperimentSpec jittered = spec;
  jittered.workload.start_jitter = units::kMicrosecond;
  EXPECT_NE(jittered.validate(), "");

  ExperimentSpec idle = spec;
  idle.workload.concurrent = 0;
  EXPECT_NE(idle.validate(), "");

  // The closed-loop rows on a pair pattern would change the hash of a run
  // they do not change.
  ExperimentSpec permutation;
  permutation.name = "permutation";
  permutation.workload.response_bytes = 1500;
  EXPECT_NE(permutation.validate().find("need pattern closed_loop"),
            std::string::npos);
}

TEST(ClosedLoopSpec, RowsAreWrittenOnlyWhenSet) {
  ExperimentSpec spec = closed_loop(topo::TopoKind::kJellyfish,
                                    topo::NetworkType::kSerialLow, 16, 2, 3,
                                    2);
  spec.workload.flow_bytes = 1500;
  JsonWriter w;
  spec.to_json(w);
  EXPECT_NE(w.str().find(R"("workload":{"pattern":"closed_loop",)"
                         R"("flow_bytes":1500,"rounds":2,)"
                         R"("start_jitter_us":0,"concurrent":3},)"),
            std::string::npos)
      << w.str();

  spec.workload.response_bytes = 1500;
  spec.workload.size_trace = workload::Trace::kDataMining;
  spec.workload.size_cap_bytes = 16'000'000;
  const std::string canonical = spec.canonical_json();
  EXPECT_NE(canonical.find(R"("concurrent":3,"response_bytes":1500,)"
                           R"("size_trace":"datamining",)"
                           R"("size_cap_bytes":16000000})"),
            std::string::npos)
      << canonical;

  // The topology seed is a 64-bit util::job_seed output; it must survive
  // the trip through the double parse tree to the digit.
  ASSERT_GT(spec.topo.seed, std::uint64_t{1} << 53);
  JsonValue json;
  std::string error;
  ASSERT_TRUE(parse_json(canonical, json, error)) << error;
  ExperimentSpec back;
  ASSERT_TRUE(decode_spec(json, back, error)) << error;
  EXPECT_EQ(back.topo.seed, spec.topo.seed);
  EXPECT_EQ(back.workload.size_trace, spec.workload.size_trace);
  EXPECT_EQ(back.canonical_json(), canonical);

  ASSERT_TRUE(parse_json(R"({"topo":{"seed":18446744073709551616}})", json,
                         error));
  EXPECT_FALSE(decode_spec(json, back, error));
  EXPECT_EQ(error, "topo.seed out of range");
  ASSERT_TRUE(parse_json(R"({"workload":{"size_trace":"hpc"}})", json,
                         error));
  EXPECT_FALSE(decode_spec(json, back, error));
  EXPECT_EQ(error, "workload.size_trace must be one of: websearch "
                   "datamining webserver cache hadoop (got 'hpc')");
}

}  // namespace
}  // namespace exp
}  // namespace pnet
