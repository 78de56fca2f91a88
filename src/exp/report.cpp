#include "exp/report.hpp"

#include <cstdio>

#include "util/file.hpp"
#include "util/stats.hpp"

namespace pnet::exp {

const char* to_string(TrialErrorKind kind) {
  switch (kind) {
    case TrialErrorKind::kException: return "exception";
    case TrialErrorKind::kTimeout: return "timeout";
    case TrialErrorKind::kCancelled: return "cancelled";
    case TrialErrorKind::kInvariant: return "invariant";
  }
  return "?";
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  RunningStats stats;
  for (double x : samples) stats.add(x);
  s.count = stats.count();
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  const auto ps = percentiles(samples, {50, 90, 99});
  s.median = ps[0];
  s.p90 = ps[1];
  s.p99 = ps[2];
  return s;
}

std::vector<double> CellResult::merged_fct_us() const {
  std::vector<double> merged;
  for (const auto& trial : trials) {
    merged.insert(merged.end(), trial.fct_us.begin(), trial.fct_us.end());
  }
  return merged;
}

std::vector<double> CellResult::merged_samples(const std::string& key) const {
  std::vector<double> merged;
  for (const auto& trial : trials) {
    const auto it = trial.samples.find(key);
    if (it == trial.samples.end()) continue;
    merged.insert(merged.end(), it->second.begin(), it->second.end());
  }
  return merged;
}

std::vector<double> CellResult::metric_values(const std::string& key) const {
  std::vector<double> values;
  for (const auto& trial : trials) {
    const auto it = trial.metrics.find(key);
    if (it != trial.metrics.end()) values.push_back(it->second);
  }
  return values;
}

std::uint64_t CellResult::flows_started() const {
  std::uint64_t n = 0;
  for (const auto& trial : trials) n += trial.flows_started;
  return n;
}

std::uint64_t CellResult::flows_finished() const {
  std::uint64_t n = 0;
  for (const auto& trial : trials) n += trial.flows_finished;
  return n;
}

double CellResult::delivered_bytes() const {
  double n = 0;
  for (const auto& trial : trials) n += trial.delivered_bytes;
  return n;
}

double CellResult::sim_seconds() const {
  double n = 0;
  for (const auto& trial : trials) n += trial.sim_seconds;
  return n;
}

std::uint64_t CellResult::events() const {
  std::uint64_t n = 0;
  for (const auto& trial : trials) n += trial.events;
  return n;
}

double CellResult::wall_s() const {
  double n = 0;
  for (const auto& trial : trials) n += trial.wall_s;
  return n;
}

double CellResult::events_per_sec() const {
  const double wall = wall_s();
  return wall > 0 ? static_cast<double>(events()) / wall : 0.0;
}

std::uint64_t Report::total_unfinished_flows() const {
  std::uint64_t n = 0;
  for (const auto& cell : cells_) n += cell.unfinished_flows();
  return n;
}

std::uint64_t Report::total_trial_errors() const {
  std::uint64_t n = 0;
  for (const auto& cell : cells_) n += cell.errors.size();
  return n;
}

namespace {

void summary_to_json(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(s.count));
  w.field("mean", s.mean);
  w.field("stddev", s.stddev);
  w.field("p50", s.median);
  w.field("p90", s.p90);
  w.field("p99", s.p99);
  w.field("min", s.min);
  w.field("max", s.max);
  w.end_object();
}

void cell_to_json(JsonWriter& w, const CellResult& cell, bool with_runtime) {
  w.begin_object();
  w.key("spec");
  cell.spec.to_json(w);

  w.key("metrics").begin_object();
  w.key("fct_us");
  summary_to_json(w, cell.fct());
  w.key("flows").begin_object();
  w.field("started", cell.flows_started());
  w.field("finished", cell.flows_finished());
  w.field("unfinished", cell.unfinished_flows());
  w.end_object();
  w.field("delivered_bytes", cell.delivered_bytes());
  w.field("sim_seconds", cell.sim_seconds());
  w.field("events", cell.events());

  // Scalar metrics: union of keys across trials (std::map — key order).
  // Telemetry output (the "tm/" prefix fold_telemetry applies) gets its
  // own block below instead of the generic summaries.
  std::map<std::string, bool> metric_keys;
  std::map<std::string, bool> sample_keys;
  std::map<std::string, bool> tm_metric_keys;
  std::map<std::string, bool> tm_sample_keys;
  const auto is_tm = [](const std::string& key) {
    return key.rfind("tm/", 0) == 0;
  };
  for (const auto& trial : cell.trials) {
    for (const auto& [key, value] : trial.metrics) {
      (is_tm(key) ? tm_metric_keys : metric_keys)[key] = true;
    }
    for (const auto& [key, value] : trial.samples) {
      (is_tm(key) ? tm_sample_keys : sample_keys)[key] = true;
    }
  }
  if (!metric_keys.empty()) {
    w.key("extra").begin_object();
    for (const auto& [key, unused] : metric_keys) {
      const auto values = cell.metric_values(key);
      const auto s = summarize(values);
      w.key(key).begin_object();
      w.field("mean", s.mean);
      w.field("stddev", s.stddev);
      w.key("per_trial").begin_array();
      for (double v : values) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  if (!sample_keys.empty()) {
    w.key("samples").begin_object();
    for (const auto& [key, unused] : sample_keys) {
      w.key(key);
      summary_to_json(w, summarize(cell.merged_samples(key)));
    }
    w.end_object();
  }
  w.end_object();  // metrics

  // Telemetry block: registry counters/gauges (sum + per-trial values)
  // and sampler series (per-trial arrays on the trial's sample grid).
  // Deterministic — sampler series are pure functions of (spec, seed) —
  // so it lives outside the runtime block.
  if (!tm_metric_keys.empty() || !tm_sample_keys.empty()) {
    w.key("telemetry").begin_object();
    if (!tm_metric_keys.empty()) {
      w.key("counters").begin_object();
      for (const auto& [key, unused] : tm_metric_keys) {
        const auto values = cell.metric_values(key);
        double sum = 0.0;
        for (double v : values) sum += v;
        w.key(key.substr(3)).begin_object();
        w.field("sum", sum);
        w.key("per_trial").begin_array();
        for (double v : values) w.value(v);
        w.end_array();
        w.end_object();
      }
      w.end_object();
    }
    if (!tm_sample_keys.empty()) {
      w.key("series").begin_object();
      for (const auto& [key, unused] : tm_sample_keys) {
        w.key(key.substr(3)).begin_array();
        for (const auto& trial : cell.trials) {
          const auto it = trial.samples.find(key);
          w.begin_array();
          if (it != trial.samples.end()) {
            for (double v : it->second) w.value(v);
          }
          w.end_array();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_object();  // telemetry
  }

  // Errors block: failed trials in trial order. Deterministic (the `what`
  // strings carry no wall-clock values), so it lives outside the runtime
  // block; emitted only when non-empty so clean reports are unchanged.
  if (!cell.errors.empty()) {
    w.key("errors").begin_array();
    for (const auto& error : cell.errors) {
      w.begin_object();
      w.field("kind", to_string(error.kind));
      w.field("what", error.what);
      w.field("cell", error.cell);
      w.field("trial", error.trial);
      w.field("seed", error.seed);
      w.end_object();
    }
    w.end_array();
  }

  if (with_runtime) {
    w.key("runtime").begin_object();
    w.field("wall_s", cell.wall_s());
    w.field("events_per_sec", cell.events_per_sec());
    for (const auto& [key, value] : cell.runtime) w.field(key, value);
    w.key("trial_wall_s").begin_array();
    for (const auto& trial : cell.trials) w.value(trial.wall_s);
    w.end_array();
    std::map<std::string, bool> runtime_keys;
    for (const auto& trial : cell.trials) {
      for (const auto& [key, value] : trial.runtime) runtime_keys[key] = true;
    }
    for (const auto& [key, unused] : runtime_keys) {
      w.key(key).begin_array();
      for (const auto& trial : cell.trials) {
        const auto it = trial.runtime.find(key);
        w.value(it == trial.runtime.end() ? 0.0 : it->second);
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();  // cell
}

bool write_text(const std::string& path, const std::string& text) {
  if (util::write_file(path, text)) return true;
  std::fprintf(stderr, "exp::Report: cannot write '%s'\n", path.c_str());
  return false;
}

}  // namespace

std::string Report::to_json(bool with_runtime) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema_version", kReportSchemaVersion);
  w.field("bench", bench_);
  w.field("unfinished_flows", total_unfinished_flows());
  // Only when non-zero, so clean-run reports keep their exact bytes.
  if (total_trial_errors() > 0) {
    w.field("trial_errors", total_trial_errors());
  }
  w.key("cells").begin_array();
  for (const auto& cell : cells_) cell_to_json(w, cell, with_runtime);
  w.end_array();
  if (with_runtime) {
    w.key("runtime").begin_object();
    w.field("threads", threads_);
    w.field("sim_threads", sim_threads_);
    w.field("elapsed_s", elapsed_s_);
    double wall = 0.0;
    std::uint64_t events = 0;
    for (const auto& cell : cells_) {
      wall += cell.wall_s();
      events += cell.events();
    }
    w.field("trial_wall_s", wall);
    w.field("events", events);
    w.field("events_per_sec", wall > 0 ? static_cast<double>(events) / wall
                                       : 0.0);
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

bool Report::write_json(const std::string& path, bool with_runtime) const {
  return write_text(path, to_json(with_runtime));
}

bool Report::write_trace(const std::string& path) const {
  std::string text;
  const bool binary =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
  if (binary) {
    // Binary mode has no pid/tid lanes: merge everything into one trace.
    telemetry::Trace merged;
    for (const auto& cell : cells_) {
      for (const auto& trial : cell.trials) {
        if (trial.trace) merged.append(*trial.trace);
      }
    }
    merged.append_binary(text);
  } else {
    text = "{\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const auto& cell = cells_[c];
      bool any = false;
      for (const auto& trial : cell.trials) any |= (trial.trace != nullptr);
      if (!any) continue;
      const int pid = static_cast<int>(c);
      telemetry::append_chrome_process_name(text, pid, cell.spec.name,
                                            first);
      for (std::size_t t = 0; t < cell.trials.size(); ++t) {
        if (!cell.trials[t].trace) continue;
        cell.trials[t].trace->append_chrome_json(text, pid,
                                                 static_cast<int>(t), first);
      }
    }
    text += "\n],\"displayTimeUnit\":\"ms\"}\n";
  }
  return write_text(path, text);
}

}  // namespace pnet::exp
