#include "sim/cpu.h"

#include <cassert>
#include <utility>

namespace sim {

void Cpu::Submit(Priority p, Task work) {
  const int prio = static_cast<int>(p);
  queues_[prio].push_back(Pending{std::move(work), Duration::Zero(), {}, {}});
  if (in_logic_) return;  // StartPending re-checks priorities after the logic
  if (running_ && prio < running_->prio) PreemptRunning();
  MaybeStartNext();
}

std::size_t Cpu::queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void Cpu::Reset() {
  assert(!in_logic_ && "Cpu::Reset must not run inside task logic");
  if (running_) {
    sim_.Cancel(running_->end_event);
    sim_.Cancel(running_->charged_event);
    running_.reset();
  }
  for (auto& q : queues_) q.clear();
}

void Cpu::PreemptRunning() {
  assert(running_.has_value());
  ++preemptions_;
  Running& r = *running_;
  sim_.Cancel(r.end_event);
  sim_.Cancel(r.charged_event);
  const Duration elapsed = sim_.Now() - r.slice_start;
  const Duration remaining = r.end - sim_.Now();
  busy_total_ += elapsed;  // the consumed part of the slice retires now
  // Unfired AfterCharged entries move with the remainder, rebased onto its
  // start: the preemption delays each by exactly its own length.
  auto& charged_after = r.charged_after;
  charged_after.erase(charged_after.begin(),
                      charged_after.begin() + static_cast<std::ptrdiff_t>(r.next_charged));
  for (ChargedAfter& e : charged_after) e.at -= elapsed;
  queues_[r.prio].push_front(
      Pending{nullptr, remaining, std::move(r.after), std::move(charged_after)});
  running_.reset();
}

void Cpu::MaybeStartNext() {
  if (running_ || in_logic_) return;
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    if (!queues_[prio].empty()) {
      Pending p = std::move(queues_[prio].front());
      queues_[prio].pop_front();
      StartPending(prio, std::move(p));
      return;
    }
  }
}

void Cpu::StartPending(int prio, Pending p) {
  Duration busy;
  std::vector<AfterFn> after;
  std::vector<ChargedAfter> charged_after;
  if (p.work) {
    // Fresh task: run its logic now; it occupies the CPU for what it
    // charged. Nested Submits during the logic only enqueue; priorities are
    // re-checked below once the charge is known.
    CpuContext ctx(sim_.Now());
    in_logic_ = true;
    p.work(ctx);
    in_logic_ = false;
    busy = ctx.charged();
    after = std::move(ctx.after_);
    charged_after = std::move(ctx.charged_after_);
  } else {
    busy = p.remaining;
    after = std::move(p.after);
    charged_after = std::move(p.charged_after);
  }

  // Same-instant preemption: if strictly higher-priority work arrived while
  // the logic ran, suspend this slice before consuming any time.
  for (int higher = 0; higher < prio; ++higher) {
    if (!queues_[higher].empty()) {
      queues_[prio].push_front(
          Pending{nullptr, busy, std::move(after), std::move(charged_after)});
      MaybeStartNext();
      return;
    }
  }

  Running r;
  r.prio = prio;
  r.slice_start = sim_.Now();
  r.end = sim_.Now() + busy;
  r.after = std::move(after);
  r.charged_after = std::move(charged_after);
  r.end_event = sim_.Schedule(busy, [this] { CompleteRunning(); });
  running_.emplace(std::move(r));
  ArmChargedAfter();
}

void Cpu::ArmChargedAfter() {
  Running& r = *running_;
  if (r.next_charged == r.charged_after.size()) return;
  const TimePoint when = r.slice_start + r.charged_after[r.next_charged].at;
  if (when >= r.end) return;  // fires with the completion
  r.charged_event = sim_.ScheduleAt(when, [this] { FireChargedAfter(); });
}

void Cpu::FireChargedAfter() {
  assert(running_.has_value());
  running_->charged_event = kInvalidEventId;
  // A callback may submit work that preempts this slice (which carries the
  // rest forward) and starts another; stop as soon as the slice changed.
  // Its end event identifies the slice.
  const EventId slice = running_->end_event;
  const Duration executed = sim_.Now() - running_->slice_start;
  while (running_ && running_->end_event == slice &&
         running_->next_charged < running_->charged_after.size() &&
         running_->charged_after[running_->next_charged].at <= executed) {
    AfterFn fn = std::move(running_->charged_after[running_->next_charged].fn);
    ++running_->next_charged;
    fn();
  }
  if (running_ && running_->end_event == slice) ArmChargedAfter();
}

void Cpu::CompleteRunning() {
  assert(running_.has_value());
  busy_total_ += sim_.Now() - running_->slice_start;
  ++tasks_run_;
  // The slice's event for an entry inside it has fired (it precedes the
  // end), so every entry left is at or past the total charge.
  assert(running_->charged_event == kInvalidEventId);
  auto charged_after = std::move(running_->charged_after);
  const std::size_t first = running_->next_charged;
  auto after = std::move(running_->after);
  running_.reset();
  for (std::size_t i = first; i < charged_after.size(); ++i) charged_after[i].fn();
  for (const auto& fn : after) fn();
  MaybeStartNext();
}

}  // namespace sim
