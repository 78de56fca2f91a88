// packet_grid: a Fig 9-shaped packet-engine grid. Jellyfish fabrics with
// N = 4 planes, all four network types, permutation traffic, flow sizes
// from 0.1 MB to 1 MB (the regime where slow start ends). Event dispatch,
// queue/pipe forwarding and TCP/MPTCP do most of the work; routing is the
// KSP computed cold at flow start in each cell's private route cache.
// Several fabric draws per seed average out how one Jellyfish wiring
// shifts the grid's cost.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "exp/spec.hpp"
#include "topo/parallel.hpp"
#include "workload.hpp"
#include "workload/patterns.hpp"

namespace pnetbench {

namespace {

using namespace pnet;

constexpr int kHosts = 48;
constexpr int kPlanes = 4;
/// Fabric draws per seed. One Jellyfish wiring shifts the grid's host time
/// by about a tenth; twelve single-round draws cost what four three-round
/// draws did and average that out.
constexpr int kDraws = 12;
constexpr int kRounds = 1;  // permutation rounds per cell
constexpr std::uint64_t kSizes[] = {100'000, 1'000'000};
constexpr topo::NetworkType kTypes[] = {
    topo::NetworkType::kSerialLow,
    topo::NetworkType::kParallelHomogeneous,
    topo::NetworkType::kParallelHeterogeneous,
    topo::NetworkType::kSerialHigh,
};
constexpr std::size_t kCellsPerDraw = std::size(kTypes) * std::size(kSizes);

bool multipath(topo::NetworkType type) {
  return type == topo::NetworkType::kParallelHomogeneous ||
         type == topo::NetworkType::kParallelHeterogeneous;
}

/// bench_fig9's best-of configuration: serial networks route single-path,
/// parallel networks 4-way KSP + MPTCP.
core::PolicyConfig policy_for(topo::NetworkType type) {
  core::PolicyConfig policy;
  if (multipath(type)) {
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = kPlanes;
  } else {
    policy.policy = core::RoutingPolicy::kShortestPlane;
  }
  return policy;
}

struct Flow {
  HostId src;
  HostId dst;
  SimTime jitter = 0;  // start offset from the round's start
};

struct Cell {
  exp::ExperimentSpec spec;
  std::vector<std::vector<Flow>> rounds;
};

class PacketGrid final : public Workload {
 public:
  explicit PacketGrid(Options options) : options_(std::move(options)) {}

  void setup(std::uint64_t seed, Tracer& tracer) override {
    for (int d = 0; d < kDraws; ++d) {
      const std::uint64_t fabric_seed = draw_seed(seed, d);
      for (const topo::NetworkType type : kTypes) {
        exp::ExperimentSpec base;
        base.topo.topo = topo::TopoKind::kJellyfish;
        base.topo.type = type;
        base.topo.hosts = kHosts;
        base.topo.parallelism = kPlanes;
        base.topo.seed = fabric_seed;
        base.policy = policy_for(type);
        base.engine = exp::EngineKind::kPacket;
        // Deeper per-port buffers for bulk transfers, as bench_fig9 uses.
        base.sim.queue_buffer_bytes = 400 * 1500;
        base.workload.rounds = kRounds;
        base.seed = fabric_seed;
        int hosts = 0;
        {
          const Tracer::Scope span(tracer, Layer::kTopo, "topo.build",
                                   "fabric=" + std::to_string(d) + "/" +
                                       topo::to_string(type));
          hosts = topo::build_network(base.topo).num_hosts();
        }
        // Both flow sizes share the fabric and the traffic draw, so the
        // size axis compares like with like (bench_fig9's pairing).
        Rng rng(base.seed);
        std::vector<std::vector<Flow>> rounds(kRounds);
        for (auto& round : rounds) {
          for (const auto& [src, dst] :
               workload::permutation_pairs(hosts, rng)) {
            round.push_back({src, dst,
                             static_cast<SimTime>(rng.next_below(
                                 static_cast<std::uint64_t>(
                                     base.workload.start_jitter)))});
          }
        }
        for (const std::uint64_t bytes : kSizes) {
          Cell cell{base, rounds};
          cell.spec.workload.flow_bytes = bytes;
          // Built with += : GCC 12 warns (-Wrestrict, a false positive)
          // on "literal" + std::string temporaries at -O3.
          std::string name = "d";
          name += std::to_string(d);
          name += '/';
          name += std::to_string(bytes / 1000);
          name += "KB/";
          name += topo::to_string(type);
          cell.spec.name = std::move(name);
          cells_.push_back(std::move(cell));
        }
      }
    }
  }

  Outcome run(Tracer& tracer) override {
    Outcome out;
    exp::Report report("packet_grid");
    // An operation is one fabric draw's grid: setup() stores each draw's
    // kCellsPerDraw cells consecutively. Per-draw latencies are alike, so
    // their median and p99 are steady; per-cell ones split by flow size.
    for (std::size_t first = 0; first < cells_.size();
         first += kCellsPerDraw) {
      const auto t0 = Clock::now();
      ++out.ops;
      bool failed = false;
      for (std::size_t c = first; c < first + kCellsPerDraw; ++c) {
        exp::CellResult cell;
        cell.spec = cells_[c].spec;
        try {
          cell.trials.push_back(run_cell(cells_[c], tracer, out));
        } catch (const std::exception& e) {
          cell.errors.push_back({exp::TrialErrorKind::kException, e.what(),
                                 static_cast<int>(c), 0, cell.spec.seed});
          out.violations.push_back(cell.spec.name + ": trial error: " +
                                   e.what());
        }
        failed = failed || !cell.errors.empty() || cell.unfinished_flows() > 0;
        report.add(std::move(cell));
      }
      if (failed) ++out.failed;
      out.op_ms.push_back(seconds_since(t0) * 1e3);
    }
    out.layers["exp.trials"] = static_cast<double>(cells_.size());
    out.digest = write_report(report, options_.out_dir + "/packet_grid.json",
                              tracer, out);
    return out;
  }


  [[nodiscard]] std::vector<std::string> live_counters() const override {
    return {"sim.events"};
  }

 private:
  exp::TrialResult run_cell(const Cell& cell, Tracer& tracer, Outcome& out) {
    const exp::ExperimentSpec& spec = cell.spec;
    const std::string tag = std::string(multipath(spec.topo.type) ? "mp:"
                                                                  : "sp:") +
                            spec.name;
    exp::TrialResult r;
    std::unique_ptr<core::SimHarness> harness;
    {
      const Tracer::Scope span(tracer, Layer::kCore, "core.harness_build",
                               tag);
      harness = std::make_unique<core::SimHarness>(core::SimHarness::Options{
          .spec = spec.topo, .policy = spec.policy, .sim_config = spec.sim});
    }
    core::SimHarness& h = *harness;
    routing::RouteCache& routes = h.selector().route_cache();
    for (const auto& round : cell.rounds) {
      {
        const Tracer::Scope span(tracer, Layer::kCore, "core.flow_start",
                                 tag);
        with_route_compute(routes, tracer, [&] {
          const SimTime base = h.events().now();
          for (const Flow& f : round) {
            ++r.flows_started;
            h.starter()(f.src, f.dst, spec.workload.flow_bytes,
                        base + f.jitter, [&r](const sim::FlowRecord& rec) {
                          r.fct_us.push_back(
                              units::to_microseconds(rec.end - rec.start));
                          ++r.flows_finished;
                        });
          }
        });
      }
      const Tracer::Scope span(tracer, Layer::kSim, "sim.run", tag);
      with_route_compute(routes, tracer, [&] { h.run(); });
    }
    {
      const Tracer::Scope span(tracer, Layer::kSim, "sim.finalize", tag);
      h.finalize(h.events().now());
    }
    r.delivered_bytes =
        static_cast<double>(h.factory().total_delivered_bytes());
    r.sim_seconds = units::to_seconds(h.events().now());
    r.events = h.dispatched();
    r.metrics["drops"] = static_cast<double>(h.network().total_drops());
    r.metrics["retransmits"] = h.logger().total_retransmits();
    r.metrics["timeouts"] = h.logger().total_timeouts();

    // Correctness: every flow completes and delivers exactly its bytes.
    const double expected = static_cast<double>(r.flows_started) *
                            static_cast<double>(spec.workload.flow_bytes);
    if (r.flows_finished != r.flows_started) {
      out.violations.push_back(spec.name + ": " +
                               std::to_string(r.unfinished_flows()) +
                               " flows unfinished");
    }
    if (r.delivered_bytes != expected) {
      out.violations.push_back(spec.name + ": delivered " +
                               std::to_string(r.delivered_bytes) +
                               " bytes, expected " + std::to_string(expected));
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
    if (sim::ShardSet* shards = h.shards(); shards != nullptr) {
      // Present only when the plane-sharded engine runs.
      m["sim.boundary_msgs"] += static_cast<double>(shards->boundary_sent());
      double max_events = 0.0;
      double sum_events = 0.0;
      for (std::size_t i = 0; i < shards->size(); ++i) {
        const double n =
            static_cast<double>(shards->shard(i).events.dispatched());
        max_events = std::max(max_events, n);
        sum_events += n;
      }
      if (sum_events > 0.0) {
        m["sim.shard_skew"] = std::max(
            m["sim.shard_skew"],
            max_events * static_cast<double>(shards->size()) / sum_events);
      }
    }
    fold_route_stats(routes, tag, tracer, out);
    return r;
  }

  Options options_;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_packet_grid(const Options& options) {
  return std::make_unique<PacketGrid>(options);
}

}  // namespace pnetbench
