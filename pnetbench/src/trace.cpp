#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace pnetbench {

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

/// Per-thread cache of the log this thread writes for one tracer.
struct LogCache {
  std::uint64_t tracer = 0;
  void* log = nullptr;
};
thread_local LogCache tls_log;

void json_escape(std::ostream& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "topo", "routing", "core", "sim", "fsim", "lp", "control", "exp",
      "serve"};
  return kNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

Tracer::Scope::Scope(Tracer& tracer, Layer layer, const char* name,
                     std::string tag)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->open(layer, name, std::move(tag));
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

Tracer::ThreadLog& Tracer::log() {
  if (tls_log.tracer != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    tls_log = {id_, logs_.back().get()};
  }
  return *static_cast<ThreadLog*>(tls_log.log);
}

void Tracer::open(Layer layer, const char* name, std::string tag) {
  ThreadLog& l = log();
  Span span;
  span.layer = layer;
  span.name = name;
  span.tag = std::move(tag);
  span.parent = l.open.empty() ? -1 : l.open.back();
  span.start_s = now();
  l.open.push_back(static_cast<int>(l.spans.size()));
  l.spans.push_back(std::move(span));
}

void Tracer::close() {
  ThreadLog& l = log();
  Span& span = l.spans[static_cast<std::size_t>(l.open.back())];
  l.open.pop_back();
  span.end_s = now();
  if (span.parent >= 0) {
    l.spans[static_cast<std::size_t>(span.parent)].child_s +=
        span.end_s - span.start_s;
  }
}

void Tracer::derived_child(Layer layer, const char* name, double seconds) {
  if (!enabled_ || seconds <= 0.0) return;
  ThreadLog& l = log();
  if (l.open.empty()) return;
  Span& parent = l.spans[static_cast<std::size_t>(l.open.back())];
  parent.child_s += seconds;
  Span span;
  span.layer = layer;
  span.name = name;
  span.tag = parent.tag;
  span.parent = l.open.back();
  span.derived = true;
  // Placed at the parent's start: the counter gives a duration, not when
  // inside the parent the work ran.
  span.start_s = parent.start_s;
  span.end_s = parent.start_s + seconds;
  l.spans.push_back(std::move(span));
}

std::array<double, kNumLayers> Tracer::self_seconds() const {
  std::array<double, kNumLayers> self{};
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& l : logs_) {
    for (const Span& s : l->spans) {
      self[static_cast<std::size_t>(s.layer)] +=
          (s.end_s - s.start_s) - s.child_s;
    }
  }
  return self;
}

double Tracer::total_seconds(const char* name) const {
  return total_seconds(name, "");
}

double Tracer::total_seconds(const char* name,
                             const std::string& prefix) const {
  double total = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& l : logs_) {
    for (const Span& s : l->spans) {
      if (std::string_view(s.name) == name &&
          s.tag.compare(0, prefix.size(), prefix) == 0) {
        total += s.end_s - s.start_s;
      }
    }
  }
  return total;
}

double Tracer::derived_seconds_under(Layer layer) const {
  double total = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& l : logs_) {
    for (const Span& s : l->spans) {
      if (s.derived &&
          l->spans[static_cast<std::size_t>(s.parent)].layer == layer) {
        total += s.end_s - s.start_s;
      }
    }
  }
  return total;
}

std::size_t Tracer::count(const char* name) const {
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& l : logs_) {
    for (const Span& s : l->spans) {
      if (std::string_view(s.name) == name) ++n;
    }
  }
  return n;
}

double Tracer::root_seconds_since(double from_s) {
  if (!enabled_) return 0.0;
  double total = 0.0;
  for (const Span& s : log().spans) {
    if (s.parent < 0 && s.start_s >= from_s) total += s.end_s - s.start_s;
  }
  return total;
}

std::size_t Tracer::num_spans() const {
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& l : logs_) n += l->spans.size();
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t tid = 0; tid < logs_.size(); ++tid) {
    for (const Span& s : logs_[tid]->spans) {
      char times[96];
      std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                    s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"cat\":\"" << layer_name(s.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ',' << times
          << ",\"args\":{\"tag\":\"";
      json_escape(out, s.tag);
      out << "\",\"derived\":" << (s.derived ? "true" : "false") << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace pnetbench
