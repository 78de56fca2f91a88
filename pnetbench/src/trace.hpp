// Outside-in span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// pnet modules (topo, routing, core, sim, fsim, lp, control, exp, serve);
// nothing inside src/ is instrumented. Each span carries its layer, the
// span that encloses it on the same thread, and a cell or query tag. A
// layer's self time is its spans' durations minus the time of their
// children. Work a span hides from the outside (route computation inside a
// FlowStarter call or a fluid run) is attached as a "derived" child whose
// duration comes from a module counter (RouteCacheStats::compute_ns).
//
// With tracing disabled every call is a cheap no-op, so the same code runs
// the timed (untraced) and traced passes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pnetbench {

enum class Layer : std::uint8_t {
  kTopo,
  kRouting,
  kCore,
  kSim,
  kFsim,
  kLp,
  kControl,
  kExp,
  kServe,
};
inline constexpr std::size_t kNumLayers = 9;

[[nodiscard]] const char* layer_name(Layer layer);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  Layer layer = Layer::kTopo;
  const char* name = "";
  std::string tag;
  double start_s = 0.0;  // relative to the tracer's epoch
  double end_s = 0.0;
  int parent = -1;       // index into the same thread's span list
  bool derived = false;  // duration taken from a module counter
  double child_s = 0.0;  // summed duration of direct children
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, const char* name, std::string tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Attaches a derived child of `seconds` to the innermost open span of
  /// the calling thread (ignored when none is open or seconds <= 0).
  void derived_child(Layer layer, const char* name, double seconds);

  /// Self time summed per layer over every thread's spans.
  [[nodiscard]] std::array<double, kNumLayers> self_seconds() const;
  /// Summed duration of every span named `name`.
  [[nodiscard]] double total_seconds(const char* name) const;
  /// Summed duration of spans named `name` whose tag starts with `prefix`.
  [[nodiscard]] double total_seconds(const char* name,
                                     const std::string& prefix) const;
  /// Summed duration of derived spans whose parent is in `layer`.
  [[nodiscard]] double derived_seconds_under(Layer layer) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(const char* name) const;
  /// Summed duration of the calling thread's root spans (no parent) that
  /// start at or after `from_s` — the share of a timed body the spans see.
  [[nodiscard]] double root_seconds_since(double from_s);
  [[nodiscard]] std::size_t num_spans() const;
  /// Seconds since the tracer was created (span time base).
  [[nodiscard]] double now() const { return seconds_since(epoch_); }

  /// Writes every span as Chrome trace_event JSON (one tid per thread).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<int> open;  // stack of indices of open spans
  };
  ThreadLog& log();
  void open(Layer layer, const char* name, std::string tag);
  void close();

  const bool enabled_;
  const std::uint64_t id_;  // distinguishes tracers in per-thread caches
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;  // guards logs_ (the list, not each log)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace pnetbench
