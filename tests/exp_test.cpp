// Tests for the experiment layer (src/exp): spec validation, the spec
// codec (pinned canonical bytes, decode round trip over generated specs),
// the deterministic JSON writer, and the runner's central guarantee — the
// timing-free report is a pure function of (spec, seed), byte-identical
// across repeated runs and across --threads values, for both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pnet::exp {
namespace {

// ------------------------------------------------------------- validation

ExperimentSpec small_packet_spec(const std::string& name) {
  ExperimentSpec spec;
  spec.name = name;
  spec.engine = EngineKind::kPacket;
  spec.topo.topo = topo::TopoKind::kFatTree;
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 8;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kRoundRobin;
  spec.workload.flow_bytes = 200'000;
  spec.workload.rounds = 1;
  spec.seed = 7;
  spec.trials = 2;
  return spec;
}

TEST(ExperimentSpec, ValidSpecPasses) {
  EXPECT_EQ(small_packet_spec("ok").validate(), "");
}

TEST(ExperimentSpec, RejectsBadFields) {
  auto spec = small_packet_spec("bad");
  spec.name = "";
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.trials = 0;
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.topo.hosts = 1;
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.workload.flow_bytes = 0;
  EXPECT_NE(spec.validate(), "");

  // A deadline across drained back-to-back rounds is meaningless.
  spec = small_packet_spec("bad");
  spec.workload.rounds = 2;
  spec.workload.round_gap = 0;
  spec.deadline = units::kMillisecond;
  EXPECT_NE(spec.validate(), "");
}

TEST(ExperimentSpec, CustomEngineSkipsEngineFieldChecks) {
  ExperimentSpec spec;
  spec.name = "custom";
  spec.engine = EngineKind::kCustom;
  spec.topo.hosts = 0;  // would fail for the built-in engines
  EXPECT_EQ(spec.validate(), "");
}

TEST(Runner, ThrowsOnInvalidSpecAndMissingCustomFn) {
  Runner runner(1);
  auto bad = small_packet_spec("bad");
  bad.trials = 0;
  EXPECT_THROW(runner.run_cell({bad, {}}), std::invalid_argument);

  ExperimentSpec custom;
  custom.name = "no-fn";
  custom.engine = EngineKind::kCustom;
  EXPECT_THROW(runner.run_cell({custom, {}}), std::invalid_argument);
}

// ------------------------------------------------- pinned canonical bytes

/// The canonical JSON and hash of a spec are persistent keys: checkpoint
/// journals and serve result caches written by earlier builds look specs
/// up by them, so they must never change for an existing spec shape.
struct PinnedSpec {
  ExperimentSpec spec;
  const char* canonical;
  std::uint64_t hash;
};

std::vector<PinnedSpec> pinned_specs() {
  std::vector<PinnedSpec> out;
  out.push_back({ExperimentSpec{},
                 R"({"name":"","engine":"packet","seed":1,"trials":1)"
                 R"(,"topo":{"kind":"fat-tree","type":"serial-low-bw")"
                 R"(,"hosts":128,"parallelism":4,"base_rate_gbps":100)"
                 R"(,"seed":1})"
                 R"(,"policy":{"policy":"round-robin","k":8,"ecmp_path_cap":64)"
                 R"(,"multipath_cutoff_bytes":100000000})"
                 R"(,"workload":{"pattern":"permutation","flow_bytes":1000000)"
                 R"(,"rounds":1,"start_jitter_us":10})"
                 R"(,"sim":{"queue_buffer_bytes":150000)"
                 R"(,"ecn_threshold_bytes":0,"priority_acks":false)"
                 R"(,"trim_to_header":false,"dctcp":false}})",
                 0x6bfc2d4411a9ddceULL});

  ExperimentSpec full;  // the spec of serve_test's kFullSpec request
  full.name = "t";
  full.engine = EngineKind::kFsim;
  full.seed = 7;
  full.trials = 2;
  full.deadline = 1000 * units::kMicrosecond;
  full.topo.topo = topo::TopoKind::kJellyfish;
  full.topo.type = topo::NetworkType::kParallelHomogeneous;
  full.topo.hosts = 32;
  full.topo.parallelism = 4;
  full.topo.base_rate_bps = 40 * units::kGbps;
  full.topo.seed = 9;
  full.topo.jf_switches = 16;
  full.topo.jf_degree = 8;
  full.topo.jf_hosts_per_switch = 2;
  full.policy.policy = core::RoutingPolicy::kKspMultipath;
  full.policy.k = 4;
  full.policy.ecmp_path_cap = 32;
  full.policy.multipath_cutoff_bytes = 50'000;
  full.workload.pattern = WorkloadSpec::Pattern::kAllToAll;
  full.workload.flow_bytes = 200'000;
  full.workload.rounds = 2;
  full.workload.start_jitter = 5 * units::kMicrosecond;
  full.workload.round_gap = 100 * units::kMicrosecond;
  full.sim.queue_buffer_bytes = 400'000;
  full.sim.ecn_threshold_bytes = 80'000;
  full.sim.priority_acks = false;
  full.sim.trim_to_header = true;
  full.sim.tcp.dctcp = true;
  out.push_back({full,
                 R"({"name":"t","engine":"fsim","seed":7,"trials":2)"
                 R"(,"deadline_us":1000)"
                 R"(,"topo":{"kind":"jellyfish","type":"parallel-homogeneous")"
                 R"(,"hosts":32,"parallelism":4,"base_rate_gbps":40,"seed":9)"
                 R"(,"jf_switches":16,"jf_degree":8,"jf_hosts_per_switch":2})"
                 R"(,"policy":{"policy":"ksp-multipath","k":4)"
                 R"(,"ecmp_path_cap":32,"multipath_cutoff_bytes":50000})"
                 R"(,"workload":{"pattern":"all_to_all","flow_bytes":200000)"
                 R"(,"rounds":2,"start_jitter_us":5,"round_gap_us":100})"
                 R"(,"sim":{"queue_buffer_bytes":400000)"
                 R"(,"ecn_threshold_bytes":80000,"priority_acks":false)"
                 R"(,"trim_to_header":true,"dctcp":true}})",
                 0xb08e2a28786ad34eULL});

  ExperimentSpec fsim;
  fsim.name = "fsim-cell";
  fsim.engine = EngineKind::kFsim;
  fsim.topo.topo = topo::TopoKind::kXpander;
  fsim.topo.type = topo::NetworkType::kSerialHigh;
  fsim.topo.hosts = 24;
  fsim.topo.base_rate_bps = 12.5 * units::kGbps;
  fsim.policy.policy = core::RoutingPolicy::kSizeThreshold;
  fsim.workload.pattern = WorkloadSpec::Pattern::kRackAllToAll;
  fsim.workload.start_jitter = 1500 * units::kNanosecond;
  fsim.sim.priority_acks = true;
  out.push_back({fsim,
                 R"({"name":"fsim-cell","engine":"fsim","seed":1,"trials":1)"
                 R"(,"topo":{"kind":"xpander","type":"serial-high-bw")"
                 R"(,"hosts":24,"parallelism":4,"base_rate_gbps":12.5)"
                 R"(,"seed":1})"
                 R"(,"policy":{"policy":"size-threshold","k":8)"
                 R"(,"ecmp_path_cap":64,"multipath_cutoff_bytes":100000000})"
                 R"(,"workload":{"pattern":"rack_all_to_all")"
                 R"(,"flow_bytes":1000000,"rounds":1,"start_jitter_us":1.5})"
                 R"(,"sim":{"queue_buffer_bytes":150000)"
                 R"(,"ecn_threshold_bytes":0,"priority_acks":true)"
                 R"(,"trim_to_header":false,"dctcp":false}})",
                 0xf499d36f857ea6f4ULL});

  ExperimentSpec custom;
  custom.name = "custom-cell";
  custom.engine = EngineKind::kCustom;
  custom.seed = 3;
  custom.trials = 5;
  out.push_back({custom,
                 R"({"name":"custom-cell","engine":"custom","seed":3)"
                 R"(,"trials":5})",
                 0xed3429f96b25b8b3ULL});

  const struct {
    control::ControllerMode mode;
    const char* canonical;
    std::uint64_t hash;
  } controller_pins[] = {
      {control::ControllerMode::kOff,
       R"({"name":"ctl-off","engine":"packet","seed":7,"trials":2)"
       R"(,"topo":{"kind":"fat-tree","type":"parallel-homogeneous","hosts":8)"
       R"(,"parallelism":2,"base_rate_gbps":100,"seed":1})"
       R"(,"policy":{"policy":"round-robin","k":8,"ecmp_path_cap":64)"
       R"(,"multipath_cutoff_bytes":100000000})"
       R"(,"workload":{"pattern":"permutation","flow_bytes":200000,"rounds":1)"
       R"(,"start_jitter_us":10})"
       R"(,"sim":{"queue_buffer_bytes":150000,"ecn_threshold_bytes":0)"
       R"(,"priority_acks":false,"trim_to_header":false,"dctcp":false}})",
       0x504ad7a009a9f70cULL},
      {control::ControllerMode::kHostLocal,
       R"({"name":"ctl-host-local","engine":"packet","seed":7,"trials":2)"
       R"(,"controller":{"mode":"host-local","cadence_us":250)"
       R"(,"detect_delay_us":2000,"imbalance_threshold":1.5)"
       R"(,"max_repins_per_tick":3,"window":6})"
       R"(,"topo":{"kind":"fat-tree","type":"parallel-homogeneous","hosts":8)"
       R"(,"parallelism":2,"base_rate_gbps":100,"seed":1})"
       R"(,"policy":{"policy":"round-robin","k":8,"ecmp_path_cap":64)"
       R"(,"multipath_cutoff_bytes":100000000})"
       R"(,"workload":{"pattern":"permutation","flow_bytes":200000,"rounds":1)"
       R"(,"start_jitter_us":10})"
       R"(,"sim":{"queue_buffer_bytes":150000,"ecn_threshold_bytes":0)"
       R"(,"priority_acks":false,"trim_to_header":false,"dctcp":false}})",
       0xf47e22a0393658feULL},
      {control::ControllerMode::kCentralized,
       R"({"name":"ctl-centralized","engine":"packet","seed":7,"trials":2)"
       R"(,"controller":{"mode":"centralized","cadence_us":250)"
       R"(,"detect_delay_us":2000,"imbalance_threshold":1.5)"
       R"(,"max_repins_per_tick":3,"window":6})"
       R"(,"topo":{"kind":"fat-tree","type":"parallel-homogeneous","hosts":8)"
       R"(,"parallelism":2,"base_rate_gbps":100,"seed":1})"
       R"(,"policy":{"policy":"round-robin","k":8,"ecmp_path_cap":64)"
       R"(,"multipath_cutoff_bytes":100000000})"
       R"(,"workload":{"pattern":"permutation","flow_bytes":200000,"rounds":1)"
       R"(,"start_jitter_us":10})"
       R"(,"sim":{"queue_buffer_bytes":150000,"ecn_threshold_bytes":0)"
       R"(,"priority_acks":false,"trim_to_header":false,"dctcp":false}})",
       0xeac4e10d611436beULL},
  };
  for (const auto& [mode, canonical, hash] : controller_pins) {
    ExperimentSpec spec = small_packet_spec(
        std::string("ctl-") + control::to_string(mode));
    spec.controller.mode = mode;
    spec.controller.cadence = 250 * units::kMicrosecond;
    spec.controller.detect_delay = 2 * units::kMillisecond;
    spec.controller.imbalance_threshold = 1.5;
    spec.controller.max_repins_per_tick = 3;
    spec.controller.window = 6;
    out.push_back({spec, canonical, hash});
  }
  return out;
}

TEST(ExperimentSpec, CanonicalJsonAndHashArePinned) {
  for (const PinnedSpec& pin : pinned_specs()) {
    EXPECT_EQ(pin.spec.canonical_json(), pin.canonical);
    EXPECT_EQ(pin.spec.hash(), pin.hash) << pin.spec.name;
  }
}

// ------------------------------------------------------- spec decoding

/// parse_json + decode_spec onto a default spec.
bool decode_text(const std::string& text, ExperimentSpec& out,
                 std::string& error) {
  JsonValue json;
  if (!parse_json(text, json, error)) return false;
  out = ExperimentSpec{};
  return decode_spec(json, out, error);
}

/// An integer in [lo, hi]: near either end with log-uniform distance a
/// third of the time each, else uniform, so every magnitude is drawn.
std::int64_t draw(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo);
  const std::uint64_t near = (rng.next_u64() >> rng.next_below(64)) %
                             (span + 1);
  switch (rng.next_below(3)) {
    case 0: return lo + static_cast<std::int64_t>(near);
    case 1: return hi - static_cast<std::int64_t>(near);
    default: return lo + static_cast<std::int64_t>(rng.next_below(span + 1));
  }
}

/// Any finite double: a random bit pattern, retried past NaN and inf.
double draw_finite(Rng& rng) {
  while (true) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v)) return v;
  }
}

/// A positive double from 1e-9 to 1e9 with a random mantissa.
double draw_positive(Rng& rng) {
  return (1.0 + rng.next_double()) * std::pow(10.0, draw(rng, -9, 9));
}

std::string draw_name(Rng& rng) {
  std::string name(static_cast<std::size_t>(rng.next_below(12)), ' ');
  // Every byte value, control characters, quotes and backslashes included.
  for (char& c : name) c = static_cast<char>(rng.next_below(256));
  return name;
}

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxWireU64 = std::int64_t{1} << 53;
constexpr std::int64_t kMaxWireTime = std::int64_t{1} << 51;

/// Spec `i` of the property test: enum fields step through their whole
/// registry with i (each at its own stride), numeric fields are drawn
/// across every value their codec accepts.
ExperimentSpec random_spec(int i) {
  Rng rng(util::job_seed(2024, static_cast<std::uint64_t>(i)));
  const auto u = [&](std::int64_t hi) {
    return static_cast<std::uint64_t>(draw(rng, 0, hi));
  };
  const auto n = [&](std::int64_t lo) {
    return static_cast<int>(draw(rng, lo, kIntMax));
  };
  const auto pick = [&](const auto& names, int stride) {
    return names[static_cast<std::size_t>(i * stride) % std::size(names)]
        .value;
  };
  ExperimentSpec s;
  s.name = draw_name(rng);
  s.engine = pick(kEngineNames, 1);
  s.seed = u(kMaxWireU64);
  s.trials = n(kIntMin);
  s.deadline = draw(rng, 0, kMaxWireTime);
  s.controller.mode = pick(control::kModeNames, 5);
  s.controller.cadence = draw(rng, 0, kMaxWireTime);
  s.controller.detect_delay = draw(rng, 0, kMaxWireTime);
  s.controller.imbalance_threshold = draw_finite(rng);
  s.controller.max_repins_per_tick = n(kIntMin);
  s.controller.window = n(kIntMin);
  s.topo.topo = pick(topo::kTopoKindNames, 7);
  s.topo.type = pick(topo::kNetworkTypeNames, 11);
  s.topo.hosts = n(kIntMin);
  s.topo.parallelism = n(kIntMin);
  s.topo.base_rate_bps = draw_positive(rng) * units::kGbps;
  s.topo.seed = u(kMaxWireU64);
  s.topo.jf_switches = n(0);
  s.topo.jf_degree = n(0);
  s.topo.jf_hosts_per_switch = n(0);
  s.policy.policy = pick(core::kPolicyNames, 13);
  s.policy.k = n(kIntMin);
  s.policy.ecmp_path_cap = n(kIntMin);
  s.policy.multipath_cutoff_bytes = u(kMaxWireU64);
  s.workload.pattern = pick(kPatternNames, 17);
  s.workload.flow_bytes = u(kMaxWireU64);
  s.workload.rounds = n(kIntMin);
  s.workload.start_jitter = draw(rng, 0, kMaxWireTime);
  s.workload.round_gap = draw(rng, 0, kMaxWireTime);
  s.sim.queue_buffer_bytes = u(kMaxWireU64);
  s.sim.ecn_threshold_bytes = u(kMaxWireU64);
  s.sim.priority_acks = rng.next_below(2) == 1;
  s.sim.trim_to_header = rng.next_below(2) == 1;
  s.sim.tcp.dctcp = rng.next_below(2) == 1;
  return s;
}

/// Every field the canonical form of `a` carries holds the same value in
/// `b`; fields it omits hold their defaults.
void expect_carried_fields_equal(const ExperimentSpec& a,
                                 const ExperimentSpec& b) {
  const ExperimentSpec d;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.deadline, b.deadline);
  const control::ControllerConfig& c =
      a.controller.active() ? a.controller : d.controller;
  EXPECT_EQ(c.mode, b.controller.mode);
  EXPECT_EQ(c.cadence, b.controller.cadence);
  EXPECT_EQ(c.detect_delay, b.controller.detect_delay);
  EXPECT_EQ(c.imbalance_threshold, b.controller.imbalance_threshold);
  EXPECT_EQ(c.max_repins_per_tick, b.controller.max_repins_per_tick);
  EXPECT_EQ(c.window, b.controller.window);
  const ExperimentSpec& e = a.engine != EngineKind::kCustom ? a : d;
  EXPECT_EQ(e.topo.topo, b.topo.topo);
  EXPECT_EQ(e.topo.type, b.topo.type);
  EXPECT_EQ(e.topo.hosts, b.topo.hosts);
  EXPECT_EQ(e.topo.parallelism, b.topo.parallelism);
  // The wire carries the rate in Gbps; that is the value it must keep.
  EXPECT_EQ(e.topo.base_rate_bps / units::kGbps,
            b.topo.base_rate_bps / units::kGbps);
  EXPECT_EQ(e.topo.seed, b.topo.seed);
  EXPECT_EQ(e.topo.jf_switches, b.topo.jf_switches);
  EXPECT_EQ(e.topo.jf_degree, b.topo.jf_degree);
  EXPECT_EQ(e.topo.jf_hosts_per_switch, b.topo.jf_hosts_per_switch);
  EXPECT_EQ(e.policy.policy, b.policy.policy);
  EXPECT_EQ(e.policy.k, b.policy.k);
  EXPECT_EQ(e.policy.ecmp_path_cap, b.policy.ecmp_path_cap);
  EXPECT_EQ(e.policy.multipath_cutoff_bytes, b.policy.multipath_cutoff_bytes);
  EXPECT_EQ(e.workload.pattern, b.workload.pattern);
  EXPECT_EQ(e.workload.flow_bytes, b.workload.flow_bytes);
  EXPECT_EQ(e.workload.rounds, b.workload.rounds);
  EXPECT_EQ(e.workload.start_jitter, b.workload.start_jitter);
  EXPECT_EQ(e.workload.round_gap, b.workload.round_gap);
  EXPECT_EQ(e.sim.queue_buffer_bytes, b.sim.queue_buffer_bytes);
  EXPECT_EQ(e.sim.ecn_threshold_bytes, b.sim.ecn_threshold_bytes);
  EXPECT_EQ(e.sim.priority_acks, b.sim.priority_acks);
  EXPECT_EQ(e.sim.trim_to_header, b.sim.trim_to_header);
  EXPECT_EQ(e.sim.tcp.dctcp, b.sim.tcp.dctcp);
}

TEST(SpecCodec, CanonicalJsonDecodesBackToTheSameSpec) {
  constexpr int kSpecs = 1200;
  std::set<std::string> seen;  // "<wire name>=<value>" of every enum drawn
  for (int i = 0; i < kSpecs; ++i) {
    const ExperimentSpec spec = random_spec(i);
    const std::string canonical = spec.canonical_json();
    ExperimentSpec back;
    std::string error;
    ASSERT_TRUE(decode_text(canonical, back, error))
        << "spec " << i << ": " << error << "\n" << canonical;
    ASSERT_EQ(back.canonical_json(), canonical) << "spec " << i;
    ASSERT_EQ(back.hash(), spec.hash()) << "spec " << i;
    expect_carried_fields_equal(spec, back);
    if (HasFailure()) FAIL() << "spec " << i << ": " << canonical;
    seen.insert(std::string("engine=") + to_string(spec.engine));
    seen.insert(std::string("mode=") +
                control::to_string(spec.controller.mode));
    seen.insert("kind=" + topo::to_string(spec.topo.topo));
    seen.insert("type=" + topo::to_string(spec.topo.type));
    seen.insert("policy=" + core::to_string(spec.policy.policy));
    seen.insert(std::string("pattern=") + to_string(spec.workload.pattern));
  }
  EXPECT_EQ(seen.size(), std::size(kEngineNames) +
                             std::size(control::kModeNames) +
                             std::size(topo::kTopoKindNames) +
                             std::size(topo::kNetworkTypeNames) +
                             std::size(core::kPolicyNames) +
                             std::size(kPatternNames));
}

TEST(SpecCodec, WireTimesStopAtTwoToThe51Picoseconds) {
  // At the bound a time still decodes to the picosecond it was written
  // from; one picosecond past it, the decoder refuses it rather than run
  // the served spec with a drifted time.
  ExperimentSpec spec = small_packet_spec("bound");
  spec.deadline = kMaxWireTime;
  spec.workload.round_gap = kMaxWireTime;
  ExperimentSpec back;
  std::string error;
  ASSERT_TRUE(decode_text(spec.canonical_json(), back, error)) << error;
  EXPECT_EQ(back.deadline, kMaxWireTime);
  EXPECT_EQ(back.workload.round_gap, kMaxWireTime);

  spec.deadline = kMaxWireTime + 1;
  EXPECT_FALSE(decode_text(spec.canonical_json(), back, error));
  EXPECT_EQ(error, "deadline_us out of range");
}

TEST(SpecCodec, ErrorsNameTheFieldPath) {
  ExperimentSpec back;
  std::string error;
  EXPECT_FALSE(decode_text(R"({"topo":{"hosst":4}})", back, error));
  EXPECT_EQ(error, "unknown field 'topo.hosst'");
  EXPECT_FALSE(decode_text(R"({"controller":{"mode":"manual"}})", back,
                           error));
  EXPECT_EQ(error,
            "controller.mode must be one of: off host-local centralized "
            "(got 'manual')");
  EXPECT_FALSE(decode_text(R"({"controller":{"window":1.5}})", back, error));
  EXPECT_EQ(error, "controller.window must be an integer");
  EXPECT_FALSE(decode_text(R"({"topo":{"base_rate_gbps":1e300}})", back,
                           error));
  EXPECT_EQ(error, "topo.base_rate_gbps out of range");
  EXPECT_FALSE(decode_text(R"({"sim":[]})", back, error));
  EXPECT_EQ(error, "sim must be an object");
  EXPECT_FALSE(decode_text("7", back, error));
  EXPECT_EQ(error, "spec must be an object");
}

// ------------------------------------------------------------ JSON writer

TEST(JsonWriter, EmitsBalancedDocuments) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b\n");
  w.field("count", std::uint64_t{3});
  w.key("list").begin_array();
  w.value(1.5);
  w.value(false);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\n\",\"count\":3,\"list\":[1.5,false]}");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  for (double v : {0.0, -1.0, 0.1, 1e300, 3.14159265358979,
                   123456789.123456789}) {
    const std::string s = json_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // Integral doubles print without an exponent soup.
  EXPECT_EQ(json_double(42.0), "42");
}

// ------------------------------------------------------------ parallelism

TEST(ParallelMap, ResultsInJobOrderForAnyThreadCount) {
  std::vector<int> jobs;
  for (int i = 0; i < 100; ++i) jobs.push_back(i);
  const auto square = [](const int& v) { return v * v; };
  const auto one = util::parallel_map(jobs, square, 1);
  const auto four = util::parallel_map(jobs, square, 4);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one[99], 99 * 99);
}

TEST(ParallelMap, JobSeedIsStableAndDecorrelated) {
  EXPECT_EQ(util::job_seed(1, 0), util::job_seed(1, 0));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(1, 1));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(2, 0));
}

// ------------------------------------------------- determinism contract

std::string run_report_json(const std::vector<Cell>& cells,
                            int threads) {
  Runner runner(threads);
  Report report("determinism");
  for (auto& cell : runner.run(cells)) report.add(std::move(cell));
  return report.to_json(/*with_runtime=*/false);
}

TEST(Runner, PacketEngineReportIsByteIdenticalAcrossThreadsAndRuns) {
  auto spec = small_packet_spec("packet-cell");
  spec.trials = 3;
  const std::vector<Cell> cells = {{spec, {}}};
  const std::string one = run_report_json(cells, 1);
  EXPECT_EQ(one, run_report_json(cells, 4));
  EXPECT_EQ(one, run_report_json(cells, 1));
  EXPECT_NE(one.find("\"unfinished\":0"), std::string::npos);
}

TEST(Runner, FsimEngineReportIsByteIdenticalAcrossThreadsAndRuns) {
  auto spec = small_packet_spec("fsim-cell");
  spec.engine = EngineKind::kFsim;
  spec.trials = 4;
  spec.workload.rounds = 2;
  const std::vector<Cell> cells = {{spec, {}}};
  const std::string one = run_report_json(cells, 1);
  EXPECT_EQ(one, run_report_json(cells, 4));
  EXPECT_EQ(one, run_report_json(cells, 1));
}

TEST(Runner, MixedCellsMergeInSubmissionOrder) {
  auto packet = small_packet_spec("a-packet");
  auto fsim = small_packet_spec("b-fsim");
  fsim.engine = EngineKind::kFsim;
  ExperimentSpec custom;
  custom.name = "c-custom";
  custom.engine = EngineKind::kCustom;
  custom.trials = 2;
  custom.seed = 11;
  const TrialFn fn = [](const TrialContext& ctx) {
    TrialResult r;
    r.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFFFF);
    r.flows_started = 1;
    r.flows_finished = 1;
    return r;
  };
  const std::vector<Cell> cells = {{packet, {}}, {fsim, {}},
                                           {custom, fn}};
  const auto results = Runner(4).run(cells);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].spec.name, "a-packet");
  EXPECT_EQ(results[1].spec.name, "b-fsim");
  EXPECT_EQ(results[2].spec.name, "c-custom");
  EXPECT_EQ(results[2].trials.size(), 2u);
}

TEST(Runner, CustomTrialsSeePerTrialJobSeeds) {
  ExperimentSpec spec;
  spec.name = "seeded";
  spec.engine = EngineKind::kCustom;
  spec.seed = 42;
  spec.trials = 3;
  std::atomic<int> calls{0};
  const TrialFn fn = [&calls](const TrialContext& ctx) {
    EXPECT_EQ(ctx.seed, util::job_seed(42, static_cast<std::uint64_t>(
                                               ctx.trial)));
    ++calls;
    TrialResult r;
    r.metrics["trial"] = ctx.trial;
    return r;
  };
  const auto cell = Runner(2).run_cell({spec, fn});
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(cell.trials.size(), 3u);
  // Trials land in trial order regardless of which worker ran them.
  for (int t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(cell.trials[t].metrics.at("trial"), t);
  }
}

// ------------------------------------------------------ engine interface

TEST(Engine, MakeEngineResolvesEveryKind) {
  EXPECT_NE(make_engine(EngineKind::kPacket), nullptr);
  EXPECT_NE(make_engine(EngineKind::kFsim), nullptr);
  EXPECT_NE(make_engine(EngineKind::kCustom,
                        [](const TrialContext&) { return TrialResult{}; }),
            nullptr);
  EXPECT_THROW(make_engine(EngineKind::kCustom), std::invalid_argument);
  // A fn overrides a built-in kind (the historical Cell{spec, fn} rule).
  auto wrapped = make_engine(EngineKind::kPacket, [](const TrialContext&) {
    TrialResult r;
    r.metrics["wrapped"] = 1.0;
    return r;
  });
  const auto spec = small_packet_spec("wrapped");
  const auto cell = wrapped->run(spec, {});
  ASSERT_EQ(cell.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(cell.trials[0].metrics.at("wrapped"), 1.0);
}

TEST(Engine, DirectRunMatchesRunnerDispatch) {
  // Engine::run (sequential) and the Runner's threaded fan-out must agree
  // for both built-in engines: same trials, same deterministic payloads.
  for (const auto kind : {EngineKind::kPacket, EngineKind::kFsim}) {
    auto spec = small_packet_spec(std::string("direct-") + to_string(kind));
    spec.engine = kind;
    spec.trials = 3;
    const auto direct = make_engine(kind)->run(spec, {});
    const auto via_runner = Runner(3).run_cell({spec, {}});
    ASSERT_EQ(direct.trials.size(), via_runner.trials.size());
    for (std::size_t t = 0; t < direct.trials.size(); ++t) {
      EXPECT_EQ(direct.trials[t].fct_us, via_runner.trials[t].fct_us);
      EXPECT_EQ(direct.trials[t].metrics, via_runner.trials[t].metrics);
      EXPECT_EQ(direct.trials[t].flows_finished,
                via_runner.trials[t].flows_finished);
    }
  }
}

TEST(Engine, TelemetryContextYieldsFoldedSeriesAndTrace) {
  auto spec = small_packet_spec("instrumented");
  spec.trials = 1;
  EngineContext ctx;
  ctx.telemetry = {.sample_every = 100 * units::kMicrosecond,
                   .trace = true};
  const auto cell = PacketEngine().run(spec, ctx);
  ASSERT_EQ(cell.trials.size(), 1u);
  const auto& trial = cell.trials[0];
  EXPECT_NE(trial.samples.find("tm/t_us"), trial.samples.end());
  EXPECT_NE(trial.samples.find("tm/goodput_bps"), trial.samples.end());
  EXPECT_NE(trial.metrics.find("tm/flows_started"), trial.metrics.end());
  ASSERT_NE(trial.trace, nullptr);
  EXPECT_GT(trial.trace->size(), 0u);

  // Disabled context = no telemetry keys, no trace (the zero-cost path).
  const auto plain = PacketEngine().run(spec, {});
  EXPECT_TRUE(plain.trials[0].samples.empty());
  EXPECT_EQ(plain.trials[0].trace, nullptr);
}

// ------------------------------------------------- unfinished accounting

TEST(Runner, DeadlineSurfacesUnfinishedFlowsInReport) {
  auto spec = small_packet_spec("cut-short");
  spec.trials = 1;
  spec.workload.flow_bytes = 50'000'000;  // cannot finish in 50 us
  spec.deadline = 50 * units::kMicrosecond;
  Runner runner(1);
  Report report("unfinished");
  report.add(runner.run_cell({spec, {}}));
  EXPECT_GT(report.total_unfinished_flows(), 0u);
  const std::string json = report.to_json(false);
  EXPECT_EQ(json.find("\"unfinished\":0"), std::string::npos);
  EXPECT_NE(json.find("\"unfinished\":"), std::string::npos);
}

TEST(Report, RuntimeBlockOnlyWithTiming) {
  auto spec = small_packet_spec("timing");
  spec.trials = 1;
  Runner runner(1);
  Report report("timing");
  report.add(runner.run_cell({spec, {}}));
  report.record_runtime(0.5, 2);
  EXPECT_EQ(report.to_json(false).find("runtime"), std::string::npos);
  EXPECT_NE(report.to_json(true).find("runtime"), std::string::npos);
}

}  // namespace
}  // namespace pnet::exp
