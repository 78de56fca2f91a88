#include "workload.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/parallel.hpp"

namespace pnetbench {

const std::vector<std::pair<std::string, WorkloadFactory>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFactory>> kAll = {
      {"packet_grid", make_packet_grid},
      {"flow_sweep", make_flow_sweep},
      {"fault_control", make_fault_control},
      {"serve_mix", make_serve_mix},
  };
  return kAll;
}

std::uint64_t write_report(const pnet::exp::Report& report,
                           const std::string& path, Tracer& tracer,
                           Outcome& outcome) {
  {
    const Tracer::Scope span(tracer, Layer::kExp, "exp.write_json",
                             report.bench());
    if (!report.write_json(path, /*with_runtime=*/false)) {
      outcome.violations.push_back("cannot write report " + path);
      return 0;
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return pnet::exp::fnv1a(bytes.str());
}

void fold_route_stats(pnet::routing::RouteCache& cache,
                      const std::string& tag, Tracer& tracer,
                      Outcome& outcome) {
  pnet::routing::RouteCacheStats st;
  {
    const Tracer::Scope span(tracer, Layer::kRouting, "routing.stats", tag);
    st = cache.stats();
  }
  auto& m = outcome.layers;
  m["routing.lookups"] += static_cast<double>(st.hits + st.misses);
  m["routing.hits"] += static_cast<double>(st.hits);
  m["routing.compute_s"] += static_cast<double>(st.compute_ns) * 1e-9;
  m["routing.invalidations"] += static_cast<double>(st.invalidations);
  m["routing.paths"] += static_cast<double>(st.paths);
  m["routing.arena_mb"] +=
      static_cast<double>(st.arena_bytes) / (1024.0 * 1024.0);
}

void with_route_compute(pnet::routing::RouteCache& cache, Tracer& tracer,
                        const std::function<void()>& fn) {
  if (!tracer.enabled()) {
    fn();
    return;
  }
  const std::uint64_t before = cache.stats().compute_ns;
  fn();
  const std::uint64_t after = cache.stats().compute_ns;
  tracer.derived_child(Layer::kRouting, "routing.compute",
                       static_cast<double>(after - before) * 1e-9);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

std::uint64_t draw_seed(std::uint64_t seed, std::uint64_t index) {
  return pnet::util::job_seed(seed, index);
}

}  // namespace pnetbench
