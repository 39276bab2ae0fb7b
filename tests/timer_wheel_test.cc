// Property-test harness for the scheduler: the Simulator, whose queue is the
// hierarchical timing wheel, must be observationally identical to a plain
// reference model — a priority queue keyed on (deadline, FIFO seq) with lazy
// cancellation, defined below in a few dozen lines.
//
// Mirrors demux_equivalence_test: a seeded generator produces randomized
// op scripts (schedule / cancel / reschedule / advance, plus events that
// schedule further events from inside their callbacks), each script is
// applied in lockstep to the Simulator and to the model, and every
// observable is compared: the full (tag, fire-time) log byte for byte, the
// virtual clock, pending/processed counts, per-handle IsPending, and the
// sim.timer_* instruments against the model's tallies. Any divergence in
// firing order, tie-breaking, or cancellation semantics fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace sim {
namespace {

// splitmix64: deterministic, implementation-independent stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// Delays spanning every wheel level: immediate ties, sub-slot, and horizons
// out to minutes (RTO backoff / 2MSL territory).
Duration DelayFromDraw(std::uint64_t draw) {
  switch (draw % 8) {
    case 0: return Duration::Nanos(0);  // same-instant FIFO ties
    case 1: return Duration::Nanos(static_cast<std::int64_t>(draw / 8 % 256));
    case 2: return Duration::Micros(static_cast<std::int64_t>(draw / 8 % 1000));
    case 3: return Duration::Millis(static_cast<std::int64_t>(draw / 8 % 50));
    case 4: return Duration::Millis(static_cast<std::int64_t>(draw / 8 % 1000));
    case 5: return Duration::Seconds(static_cast<std::int64_t>(draw / 8 % 70));
    case 6: return Duration::Millis(200);  // repeated identical deadline
    default:
      return Duration::Nanos(static_cast<std::int64_t>(draw / 8 % 5'000'000));
  }
}

// The reference model. Handles are the FIFO seq itself; cancellation is
// lazy (the entry stays queued and is skipped when it surfaces). No pools,
// no compaction: only the semantics the wheel must reproduce.
class ReferenceQueue {
 public:
  using Handle = std::uint64_t;
  TimePoint Now() const { return now_; }
  Handle Schedule(Duration delay, std::function<void()> fn) {
    const Handle seq = next_seq_++;
    queue_.push(Entry{(now_ + delay).ns(), seq, std::move(fn)});
    live_.insert(seq);
    ++schedules;
    peak = std::max(peak, live_.size());
    return seq;
  }
  void Cancel(Handle h) {
    if (live_.erase(h) == 0) return;  // fired, cancelled or unknown: no-op
    cancelled_.insert(h);
    ++cancels;
  }
  bool IsPending(Handle h) const { return live_.count(h) != 0; }
  std::size_t pending_events() const { return live_.size(); }
  std::size_t events_processed() const { return fires; }
  void Run() { Drain(TimePoint::Max().ns()); }
  void RunFor(Duration d) {
    const TimePoint until = now_ + d;
    Drain(until.ns());
    now_ = std::max(now_, until);
  }
  std::size_t schedules = 0, cancels = 0, fires = 0, peak = 0;

 private:
  struct Entry {
    std::int64_t when;
    Handle seq;
    std::function<void()> fn;
    bool operator>(const Entry& o) const {
      return std::tie(when, seq) > std::tie(o.when, o.seq);
    }
  };
  void Drain(std::int64_t horizon) {
    while (!queue_.empty() && queue_.top().when <= horizon) {
      Entry e = queue_.top();
      queue_.pop();
      if (cancelled_.erase(e.seq) != 0) continue;
      live_.erase(e.seq);
      now_ = TimePoint::FromNanos(e.when);
      ++fires;
      e.fn();
    }
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::set<Handle> live_;       // scheduled, not yet fired or cancelled
  std::set<Handle> cancelled_;  // still queued, skipped when they surface
  TimePoint now_;
  Handle next_seq_ = 0;
};

// One queue (Simulator or ReferenceQueue) plus everything observable about it.
template <typename Q>
struct Driver {
  Q sim;
  std::vector<decltype(sim.Schedule(Duration(), [] {}))> handles;
  std::vector<std::pair<int, std::int64_t>> log;  // (tag, fire time ns)

  void ScheduleTagged(int tag, Duration delay) {
    handles.push_back(sim.Schedule(delay, [this, tag] {
      log.emplace_back(tag, sim.Now().ns());
      // Every third event schedules a child from inside its callback, with
      // a tag-derived delay: events-scheduling-events must stay in lockstep.
      if (tag % 3 == 0) {
        const int child = tag + 100000;
        sim.Schedule(Duration::Micros((tag * 7) % 500),
                     [this, child] { log.emplace_back(child, sim.Now().ns()); });
      }
    }));
  }
};

// Applies the same seeded op script to the Simulator and the reference model
// and compares every observable. Returns (with gtest failures recorded) on
// the first divergence.
void RunScript(std::uint64_t seed, int ops) {
  Driver<ReferenceQueue> ref;
  Driver<Simulator> wheel;
  Rng rng(seed);
  int next_tag = 0;

  for (int op = 0; op < ops; ++op) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // schedule
        const int tag = next_tag++;
        const Duration d = DelayFromDraw(rng.Next());
        ref.ScheduleTagged(tag, d);
        wheel.ScheduleTagged(tag, d);
        break;
      }
      case 4:
      case 5: {  // cancel a random handle (may already be fired: no-op)
        if (ref.handles.empty()) break;
        const std::size_t i = rng.Below(ref.handles.size());
        ASSERT_EQ(ref.sim.IsPending(ref.handles[i]),
                  wheel.sim.IsPending(wheel.handles[i]))
            << "seed " << seed << " op " << op;
        ref.sim.Cancel(ref.handles[i]);
        wheel.sim.Cancel(wheel.handles[i]);
        break;
      }
      case 6: {  // reschedule: cancel + re-arm under a fresh deadline
        if (ref.handles.empty()) break;
        const std::size_t i = rng.Below(ref.handles.size());
        ref.sim.Cancel(ref.handles[i]);
        wheel.sim.Cancel(wheel.handles[i]);
        const int tag = next_tag++;
        const Duration d = DelayFromDraw(rng.Next());
        ref.ScheduleTagged(tag, d);
        wheel.ScheduleTagged(tag, d);
        break;
      }
      default: {  // advance
        const Duration d = DelayFromDraw(rng.Next());
        ref.sim.RunFor(d);
        wheel.sim.RunFor(d);
        ASSERT_EQ(ref.sim.Now(), wheel.sim.Now()) << "seed " << seed;
        break;
      }
    }
    ASSERT_EQ(ref.sim.pending_events(), wheel.sim.pending_events())
        << "seed " << seed << " op " << op;
  }

  // Drain both, then compare every observable.
  ref.sim.Run();
  wheel.sim.Run();
  ASSERT_EQ(ref.log, wheel.log) << "firing order diverged, seed " << seed;
  ASSERT_EQ(ref.sim.Now(), wheel.sim.Now()) << "seed " << seed;
  ASSERT_EQ(ref.sim.pending_events(), 0u) << "seed " << seed;
  ASSERT_EQ(wheel.sim.pending_events(), 0u) << "seed " << seed;
  ASSERT_EQ(ref.sim.events_processed(), wheel.sim.events_processed())
      << "seed " << seed;

  // The simulator's instruments agree with the model's tallies.
  const MetricsRegistry& m = wheel.sim.metrics();
  ASSERT_EQ(m.counters().at("sim.timer_schedules").value(), ref.sim.schedules)
      << "seed " << seed;
  ASSERT_EQ(m.counters().at("sim.timer_cancels").value(), ref.sim.cancels)
      << "seed " << seed;
  ASSERT_EQ(m.counters().at("sim.timer_fires").value(), ref.sim.fires)
      << "seed " << seed;
  ASSERT_EQ(m.gauges().at("sim.timer_pending_peak").value(),
            static_cast<std::int64_t>(ref.sim.peak))
      << "seed " << seed;

  // Cancel-after-fire safety: every handle is long dead; Cancel must be a
  // no-op on both sides and IsPending must agree (false).
  for (std::size_t i = 0; i < ref.handles.size(); ++i) {
    ASSERT_FALSE(ref.sim.IsPending(ref.handles[i])) << "seed " << seed;
    ASSERT_FALSE(wheel.sim.IsPending(wheel.handles[i])) << "seed " << seed;
    ref.sim.Cancel(ref.handles[i]);
    wheel.sim.Cancel(wheel.handles[i]);
  }
  ASSERT_EQ(ref.sim.pending_events(), wheel.sim.pending_events());
}

TEST(SchedulerEquivalence, RandomizedScriptsAgreeByteForByte) {
  // >= 1000 distinct seeds; short scripts keep the suite fast while the
  // delay distribution still exercises every wheel level and FIFO ties.
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    RunScript(seed, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerEquivalence, DenseTieStorm) {
  // Many events on few distinct instants: tie-breaking is the whole test.
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    Driver<ReferenceQueue> ref;
    Driver<Simulator> wheel;
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      const Duration d = Duration::Micros(static_cast<std::int64_t>(rng.Below(4)));
      ref.ScheduleTagged(i, d);
      wheel.ScheduleTagged(i, d);
    }
    ref.sim.Run();
    wheel.sim.Run();
    ASSERT_EQ(ref.log, wheel.log) << "seed " << seed;
  }
}

// --- direct TimerWheel unit coverage ---------------------------------------

TEST(TimerWheel, FiresInDeadlineThenSeqOrder) {
  TimerWheel w;
  std::vector<int> order;
  w.Schedule(TimePoint::FromNanos(500), 2, [&] { order.push_back(2); });
  w.Schedule(TimePoint::FromNanos(100), 1, [&] { order.push_back(1); });
  w.Schedule(TimePoint::FromNanos(500), 0, [&] { order.push_back(0); });
  TimePoint when;
  sim::EventFn fn;
  while (w.PopDueBefore(TimePoint::Max(), &when, &fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, CancelIsEagerAndIdsDoNotAlias) {
  TimerWheel w;
  const EventId a = w.Schedule(TimePoint::FromNanos(1000), 0, [] {});
  EXPECT_TRUE(w.Contains(a));
  EXPECT_TRUE(w.Cancel(a));
  EXPECT_EQ(w.size(), 0u);       // removed immediately, no dead entry
  EXPECT_FALSE(w.Cancel(a));     // double-cancel is a no-op
  // The node is reused; the stale id must not cancel the new entry.
  const EventId b = w.Schedule(TimePoint::FromNanos(2000), 1, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(w.Contains(a));
  EXPECT_FALSE(w.Cancel(a));
  EXPECT_TRUE(w.Contains(b));
  EXPECT_EQ(w.size(), 1u);
}

TEST(TimerWheel, LongHorizonCascadesDown) {
  // A deadline far beyond level 0 must cascade down and still fire at the
  // exact instant, before a later short timer scheduled afterwards.
  TimerWheel w;
  std::vector<int> order;
  const std::int64_t far = Duration::Seconds(300).ns();  // level >= 4
  w.Schedule(TimePoint::FromNanos(far), 0, [&] { order.push_back(0); });
  w.Schedule(TimePoint::FromNanos(far + 1), 1, [&] { order.push_back(1); });
  TimePoint when;
  sim::EventFn fn;
  ASSERT_TRUE(w.PopDueBefore(TimePoint::Max(), &when, &fn));
  EXPECT_EQ(when.ns(), far);
  fn();
  ASSERT_TRUE(w.PopDueBefore(TimePoint::Max(), &when, &fn));
  EXPECT_EQ(when.ns(), far + 1);
  fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GT(w.cascade_moves(), 0u);
}

TEST(TimerWheel, HorizonBoundsPop) {
  TimerWheel w;
  w.Schedule(TimePoint::FromNanos(5000), 0, [] {});
  TimePoint when;
  sim::EventFn fn;
  EXPECT_FALSE(w.PopDueBefore(TimePoint::FromNanos(4999), &when, &fn));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(w.PopDueBefore(TimePoint::FromNanos(5000), &when, &fn));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, InvalidIdsAreSafe) {
  TimerWheel w;
  EXPECT_FALSE(w.Cancel(kInvalidEventId));
  EXPECT_FALSE(w.Contains(kInvalidEventId));
  EXPECT_FALSE(w.Cancel(0xdeadbeefULL << 32 | 7));  // out-of-range pool index
}

}  // namespace
}  // namespace sim
