#include "sim/simulator.h"

#include <cassert>
#include <utility>

#include "sim/metrics.h"
#include "sim/profiler.h"
#include "sim/tracer.h"

namespace sim {

Simulator::Simulator()
    : metrics_(std::make_unique<MetricsRegistry>()),
      tracer_(std::make_unique<Tracer>()) {
  schedules_ctr_ = &metrics_->counter("sim.timer_schedules");
  cancels_ctr_ = &metrics_->counter("sim.timer_cancels");
  fires_ctr_ = &metrics_->counter("sim.timer_fires");
  pending_gauge_ = &metrics_->gauge("sim.timer_pending");
  pending_peak_ = &metrics_->gauge("sim.timer_pending_peak");
  delay_hist_ = &metrics_->histogram("sim.timer_delay_ns");
  cascades_ctr_ = &metrics_->counter("sim.timer_cascades");
  // Ring overflow surfaces as sim.tracer_dropped; resolution is lazy (first
  // drop) so drop-free runs keep byte-identical metrics snapshots.
  tracer_->SetDropRegistry(metrics_.get());
}

Simulator::~Simulator() = default;

EventId Simulator::ScheduleAt(TimePoint when, EventFn fn) {
  PLEXUS_PROFILE_SCOPE(kTimerSchedule);
  assert(fn != nullptr || !"scheduling an empty callback");
  if (when < now_) when = now_;  // never schedule into the past
  const EventId id = wheel_.Schedule(when, next_seq_++, std::move(fn));
  schedules_ctr_->Inc();
  delay_hist_->Observe((when - now_).ns());
  const auto pending = static_cast<std::int64_t>(wheel_.size());
  pending_gauge_->Set(pending);
  if (pending > pending_peak_->value()) pending_peak_->Set(pending);
  return id;
}

void Simulator::Cancel(EventId id) {
  if (id == kInvalidEventId) return;
  PLEXUS_PROFILE_SCOPE(kTimerCancel);
  if (wheel_.Cancel(id)) {
    cancels_ctr_->Inc();
    pending_gauge_->Set(static_cast<std::int64_t>(wheel_.size()));
  }
}

std::size_t Simulator::Drain(TimePoint horizon) {
  stopped_ = false;
  std::size_t fired = 0;
  TimePoint when;
  EventFn fn;
  while (!stopped_) {
    bool popped;
    {
      PLEXUS_PROFILE_SCOPE(kSchedulerPop);
      popped = wheel_.PopDueBefore(horizon, &when, &fn);
      const std::uint64_t moves = wheel_.cascade_moves();
      cascades_ctr_->Inc(moves - reported_cascades_);
      reported_cascades_ = moves;
    }
    if (!popped) break;
    now_ = when;
    fires_ctr_->Inc();
    pending_gauge_->Set(static_cast<std::int64_t>(wheel_.size()));
    ++events_processed_;
    {
      PLEXUS_PROFILE_SCOPE(kTimerFire);
      fn();
    }
    fn = nullptr;  // drop captures before the next pop overwrites
    ++fired;
  }
  return fired;
}

std::size_t Simulator::Run() { return Drain(TimePoint::Max()); }

std::size_t Simulator::RunUntil(TimePoint t) {
  const std::size_t fired = Drain(t);
  if (now_ < t) now_ = t;
  return fired;
}

}  // namespace sim
