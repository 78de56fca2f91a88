// Drives a telemetry::Sampler off the packet simulator's event queue: one
// self-rescheduling EventSource that fires at every sample grid point. The
// driver only re-arms itself while other simulation work is pending, so an
// otherwise-drained EventQueue::run() still terminates — sampling rides the
// simulation, it never extends it.
#pragma once

#include <functional>
#include <utility>

#include "sim/event_queue.hpp"
#include "telemetry/sampler.hpp"

namespace pnet::sim {

class TelemetryDriver : public EventSource {
 public:
  TelemetryDriver(EventQueue& events, telemetry::Sampler& sampler)
      : events_(events), sampler_(sampler) {}

  /// Extra "simulation still has work" predicate consulted alongside this
  /// queue's own pending count. SimHarness hooks ShardSet::busy() here:
  /// the driver rides the control queue, which looks drained whenever the
  /// remaining work lives on shard heaps.
  void set_more_work(std::function<bool()> more_work) {
    more_work_ = std::move(more_work);
  }

  /// Starts sampling at `at` (the first sample lands one interval later).
  /// No-op when the sampler has no interval configured.
  void start(SimTime at) {
    sampler_.start(at);
    schedule_next();
  }

  void do_next_event() override {
    events_.aux_fired();
    sampler_.advance(events_.now());
    // The firing entry is already popped, so real_pending() counts
    // everything else except sibling drivers (e.g. the control loop):
    // re-arm only while real simulation work remains.
    if (events_.real_pending() > 0 || (more_work_ && more_work_())) {
      schedule_next();
    }
  }

 private:
  void schedule_next() {
    const SimTime next = sampler_.next_sample_at();
    if (next != telemetry::Sampler::kNoSample) {
      events_.schedule_aux_at(next, this);
    }
  }

  EventQueue& events_;
  telemetry::Sampler& sampler_;
  std::function<bool()> more_work_;
};

}  // namespace pnet::sim
