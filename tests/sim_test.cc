// Unit tests for the discrete-event simulation substrate.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/host.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace sim {
namespace {

TEST(Duration, ArithmeticAndConversions) {
  EXPECT_EQ(Duration::Micros(3).ns(), 3000);
  EXPECT_EQ(Duration::Millis(2).ns(), 2'000'000);
  EXPECT_EQ(Duration::Seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ((Duration::Micros(5) + Duration::Micros(7)).us(), 12.0);
  EXPECT_EQ((Duration::Micros(5) * 3).us(), 15.0);
  EXPECT_EQ(Duration::Nanos(15) * 100, Duration::Nanos(1500));
  EXPECT_DOUBLE_EQ(Duration::Micros(10) / Duration::Micros(4), 2.5);
  EXPECT_LT(Duration::Micros(1), Duration::Micros(2));
}

TEST(TimePoint, Arithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Micros(10);
  EXPECT_EQ((t1 - t0).us(), 10.0);
  EXPECT_GT(t1, t0);
}

TEST(Simulator, RunsEventsInTimestampOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Duration::Micros(30), [&] { order.push_back(3); });
  s.Schedule(Duration::Micros(10), [&] { order.push_back(1); });
  s.Schedule(Duration::Micros(20), [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), TimePoint() + Duration::Micros(30));
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(Duration::Micros(5), [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventId id = s.Schedule(Duration::Micros(5), [&] { fired = true; });
  EXPECT_TRUE(s.IsPending(id));
  s.Cancel(id);
  EXPECT_FALSE(s.IsPending(id));
  s.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelOfFiredEventIsSafe) {
  Simulator s;
  EventId id = s.Schedule(Duration::Micros(1), [] {});
  s.Run();
  s.Cancel(id);  // must not crash or corrupt
  s.Schedule(Duration::Micros(1), [] {});
  EXPECT_EQ(s.Run(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.Schedule(Duration::Micros(10), tick);
  };
  s.Schedule(Duration::Micros(10), tick);
  s.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.Now().us(), 50.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(Duration::Micros(i * 10), [&] { ++count; });
  }
  s.RunUntil(TimePoint() + Duration::Micros(35));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.Now().us(), 35.0);
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator s;
  s.RunUntil(TimePoint() + Duration::Millis(5));
  EXPECT_EQ(s.Now().ns(), Duration::Millis(5).ns());
}

TEST(Simulator, StopAbortsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(Duration::Micros(i), [&] {
      if (++count == 3) s.Stop();
    });
  }
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, ScheduleInPastClampsToNow) {
  Simulator s;
  s.Schedule(Duration::Micros(10), [&] {
    bool ran = false;
    s.ScheduleAt(TimePoint(), [&ran] { ran = true; });
    (void)ran;
  });
  EXPECT_NO_FATAL_FAILURE(s.Run());
  EXPECT_EQ(s.Now().us(), 10.0);
}

TEST(Simulator, WheelCancelsEagerly) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.Schedule(Duration::Micros(10 + i), [] {}));
  }
  for (int i = 0; i < 900; ++i) s.Cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_events(), 100u);
  EXPECT_EQ(s.metrics().counter("sim.timer_cancels").value(), 900u);
}

TEST(Simulator, CascadeCounterMatchesStandaloneWheel) {
  // Long-horizon timers (>= 300 s: wheel level >= 4) scheduled on a
  // Simulator and on a bare TimerWheel with the same (deadline, seq) pairs
  // must cascade identically, and sim.timer_cascades must report exactly
  // the wheel's cascade moves at every point of a two-step drain.
  const std::int64_t deadlines_s[] = {300, 300, 301, 450, 600, 900, 3600};
  Simulator s;
  TimerWheel w;
  std::vector<std::int64_t> sim_fired, wheel_fired;
  std::vector<EventId> sim_ids, wheel_ids;
  std::uint64_t seq = 0;
  for (const std::int64_t d : deadlines_s) {
    const TimePoint when = TimePoint() + Duration::Seconds(d) + Duration::Nanos(d % 7);
    sim_ids.push_back(s.ScheduleAt(when, [&] { sim_fired.push_back(s.Now().ns()); }));
    wheel_ids.push_back(w.Schedule(when, seq++, [] {}));
  }
  EXPECT_EQ(s.pending_events(), 7u);
  s.Cancel(sim_ids[4]);  // the 600 s timer
  w.Cancel(wheel_ids[4]);
  EXPECT_EQ(s.pending_events(), 6u);

  const auto cascades = [&s] {
    return s.metrics().counter("sim.timer_cascades").value();
  };
  const auto drain_wheel = [&](TimePoint horizon) {
    TimePoint when;
    EventFn fn;
    while (w.PopDueBefore(horizon, &when, &fn)) wheel_fired.push_back(when.ns());
  };
  const TimePoint mid = TimePoint() + Duration::Seconds(500);
  s.RunUntil(mid);
  drain_wheel(mid);
  EXPECT_EQ(sim_fired, wheel_fired);
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(cascades(), w.cascade_moves());

  s.Run();
  drain_wheel(TimePoint::Max());
  EXPECT_EQ(sim_fired, wheel_fired);
  EXPECT_EQ(sim_fired.size(), 6u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(cascades(), w.cascade_moves());
  EXPECT_GT(cascades(), 0u);
  EXPECT_EQ(s.metrics().gauge("sim.timer_pending_peak").value(), 7);
}

TEST(Cpu, SerializesTasks) {
  Simulator s;
  Cpu cpu(s);
  std::vector<double> completion_us;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Micros(10));
      ctx.After([&] { completion_us.push_back(s.Now().us()); });
    });
  }
  s.Run();
  ASSERT_EQ(completion_us.size(), 3u);
  EXPECT_EQ(completion_us[0], 10.0);
  EXPECT_EQ(completion_us[1], 20.0);
  EXPECT_EQ(completion_us[2], 30.0);
  EXPECT_EQ(cpu.busy_total().us(), 30.0);
  EXPECT_EQ(cpu.tasks_run(), 3u);
}

TEST(Cpu, InterruptPriorityRunsBeforeQueuedThreadWork) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  // One task running now; while it runs, a thread task and an interrupt
  // arrive. The interrupt must run next despite arriving later.
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(10));
    order.push_back("first");
  });
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(1));
    order.push_back("thread");
  });
  cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(1));
    order.push_back("interrupt");
  });
  s.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "interrupt");
  EXPECT_EQ(order[2], "thread");
}

TEST(Cpu, ZeroCostTaskCompletesImmediately) {
  Simulator s;
  Cpu cpu(s);
  bool done = false;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) { ctx.After([&] { done = true; }); });
  s.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.Now(), TimePoint());
}

TEST(Cpu, InterruptPreemptsRunningThreadTask) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> done;
  // A long thread task starts at t=0.
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(10));
    ctx.After([&] { done.emplace_back("thread", s.Now().us()); });
  });
  // An interrupt arrives at t=2ms: it must run immediately, and the thread
  // task's remainder resumes afterwards, completing at 10ms + 1ms.
  s.Schedule(Duration::Millis(2), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(1));
      ctx.After([&] { done.emplace_back("interrupt", s.Now().us()); });
    });
  });
  s.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, "interrupt");
  EXPECT_DOUBLE_EQ(done[0].second, 3000.0);
  EXPECT_EQ(done[1].first, "thread");
  EXPECT_DOUBLE_EQ(done[1].second, 11000.0);  // 10ms work + 1ms preemption
  EXPECT_EQ(cpu.preemptions(), 1u);
  EXPECT_EQ(cpu.busy_total().ms(), 11.0);
}

TEST(Cpu, SamePriorityDoesNotPreempt) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(5));
    ctx.After([&] { order.push_back("first"); });
  });
  s.Schedule(Duration::Millis(1), [&] {
    cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(1));
      ctx.After([&] { order.push_back("second"); });
    });
  });
  s.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(cpu.preemptions(), 0u);
}

TEST(Cpu, NestedHigherPrioritySubmitSuspendsFreshTask) {
  // A kernel task that submits an interrupt during its own logic: the
  // interrupt wins the same-instant tie; the kernel work's busy time and
  // completion side effects still happen afterwards.
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> done;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(4));
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ictx) {
      ictx.Charge(Duration::Millis(1));
      ictx.After([&] { done.emplace_back("interrupt", s.Now().us()); });
    });
    ctx.After([&] { done.emplace_back("kernel", s.Now().us()); });
  });
  s.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, "interrupt");
  EXPECT_DOUBLE_EQ(done[0].second, 1000.0);
  EXPECT_EQ(done[1].first, "kernel");
  EXPECT_DOUBLE_EQ(done[1].second, 5000.0);
  EXPECT_EQ(cpu.busy_total().ms(), 5.0);
}

TEST(Cpu, PreemptedChainRetainsFifoWithinPriority) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  for (int i = 0; i < 2; ++i) {
    cpu.Submit(Priority::kThread, [&, i](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(3));
      ctx.After([&, i] { order.push_back("t" + std::to_string(i)); });
    });
  }
  s.Schedule(Duration::Millis(1), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Micros(100));
      ctx.After([&] { order.push_back("irq"); });
    });
  });
  s.Run();
  // irq at 1.1ms; t0 resumes and completes; then t1.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "irq");
  EXPECT_EQ(order[1], "t0");
  EXPECT_EQ(order[2], "t1");
}

TEST(Cpu, AfterChargedFiresAtSliceStartPlusOffset) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> fired;
  s.Schedule(Duration::Micros(100), [&] {
    cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
      ctx.AfterCharged([&] { fired.emplace_back("at0", s.Now().us()); });
      ctx.Charge(Duration::Micros(10));
      ctx.AfterCharged([&] { fired.emplace_back("at10", s.Now().us()); });
      ctx.Charge(Duration::Micros(15));
      ctx.AfterCharged([&] { fired.emplace_back("at25", s.Now().us()); });
      ctx.AfterCharged([&] { fired.emplace_back("at25b", s.Now().us()); });
      ctx.Charge(Duration::Micros(5));
      ctx.After([&] { fired.emplace_back("done", s.Now().us()); });
    });
  });
  s.Run();
  const std::vector<std::pair<std::string, double>> want = {
      {"at0", 100.0}, {"at10", 110.0}, {"at25", 125.0}, {"at25b", 125.0}, {"done", 130.0}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(cpu.busy_total().us(), 30.0);
}

TEST(Cpu, PreemptionDelaysUnfiredAfterChargedByExactlyThePreemption) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> fired;
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(1));
    ctx.AfterCharged([&] { fired.emplace_back("1ms", s.Now().us()); });
    ctx.Charge(Duration::Millis(3));
    ctx.AfterCharged([&] { fired.emplace_back("4ms", s.Now().us()); });
    ctx.Charge(Duration::Millis(2));
    ctx.AfterCharged([&] { fired.emplace_back("6ms", s.Now().us()); });
    ctx.Charge(Duration::Millis(4));
    ctx.After([&] { fired.emplace_back("thread", s.Now().us()); });
  });
  // A 1.5 ms interrupt at t=2ms: the entry at 1 ms has fired and stays
  // fired; the ones at 4 and 6 ms and the completion move by 1.5 ms.
  s.Schedule(Duration::Millis(2), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Micros(1500));
      ctx.After([&] { fired.emplace_back("interrupt", s.Now().us()); });
    });
  });
  s.Run();
  const std::vector<std::pair<std::string, double>> want = {
      {"1ms", 1000.0},   {"interrupt", 3500.0}, {"4ms", 5500.0},
      {"6ms", 7500.0},   {"thread", 11500.0}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(cpu.preemptions(), 1u);
}

TEST(Cpu, AfterChargedCallbackThatPreemptsItsOwnSliceStopsThere) {
  // An entry's callback submits an interrupt: the interrupt preempts the
  // slice at once, the entry due at the same instant moves with the
  // remainder, and the interrupt's own entry fires on its own schedule.
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> fired;
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(1));
    ctx.AfterCharged([&] {
      fired.emplace_back("a", s.Now().us());
      cpu.Submit(Priority::kInterrupt, [&](CpuContext& ictx) {
        ictx.Charge(Duration::Millis(1));
        ictx.AfterCharged([&] { fired.emplace_back("irq.entry", s.Now().us()); });
        ictx.Charge(Duration::Millis(1));
        ictx.After([&] { fired.emplace_back("irq", s.Now().us()); });
      });
    });
    ctx.AfterCharged([&] { fired.emplace_back("b", s.Now().us()); });
    ctx.Charge(Duration::Millis(3));
    ctx.AfterCharged([&] { fired.emplace_back("c", s.Now().us()); });
    ctx.Charge(Duration::Millis(1));
    ctx.After([&] { fired.emplace_back("thread", s.Now().us()); });
  });
  s.Run();
  const std::vector<std::pair<std::string, double>> want = {
      {"a", 1000.0}, {"irq.entry", 2000.0}, {"irq", 3000.0},
      {"b", 3000.0}, {"c", 6000.0},         {"thread", 7000.0}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(cpu.preemptions(), 1u);
}

TEST(Cpu, AfterChargedAtTotalChargeFiresAtCompletionBeforeAfter) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> fired;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(8));
    ctx.After([&] { fired.emplace_back("after", s.Now().us()); });
    ctx.AfterCharged([&] { fired.emplace_back("first", s.Now().us()); });
    ctx.AfterCharged([&] { fired.emplace_back("second", s.Now().us()); });
  });
  // A zero-cost task: its entry sits at the total charge too.
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.After([&] { fired.emplace_back("zero.after", s.Now().us()); });
    ctx.AfterCharged([&] { fired.emplace_back("zero.entry", s.Now().us()); });
  });
  s.Run();
  const std::vector<std::pair<std::string, double>> want = {
      {"first", 8.0}, {"second", 8.0}, {"after", 8.0},
      {"zero.entry", 8.0}, {"zero.after", 8.0}};
  EXPECT_EQ(fired, want);
}

TEST(Cpu, ResetDropsPendingAfterCharged) {
  Simulator s;
  Cpu cpu(s);
  int fired = 0;
  // One running slice with an entry still ahead of it, and one preempted
  // remainder carrying its entry in the queue.
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(5));
    ctx.AfterCharged([&] { ++fired; });
    ctx.Charge(Duration::Millis(5));
  });
  s.Schedule(Duration::Millis(1), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(2));
      ctx.AfterCharged([&] { ++fired; });
      ctx.Charge(Duration::Millis(2));
    });
  });
  s.RunUntil(TimePoint() + Duration::Millis(2));
  ASSERT_FALSE(cpu.idle());
  cpu.Reset();
  s.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(cpu.idle());
  EXPECT_EQ(cpu.queued(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Cpu, UtilizationHelper) {
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Micros(50), Duration::Micros(100)), 0.5);
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Micros(200), Duration::Micros(100)), 1.0);
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Zero(), Duration::Zero()), 0.0);
}

TEST(Host, ChargeAccumulatesIntoTask) {
  Simulator s;
  Host h(s, "alpha", CostModel::Default1996());
  double done_at = -1;
  h.Submit(Priority::kKernel, [&] {
    h.Charge(Duration::Micros(7));
    h.Charge(Duration::Micros(3));
    h.AfterTask([&] { done_at = s.Now().us(); });
  });
  s.Run();
  EXPECT_EQ(done_at, 10.0);
  EXPECT_EQ(h.cpu().busy_total().us(), 10.0);
}

TEST(Host, NestedSubmitKeepsContextsSeparate) {
  Simulator s;
  Host h(s, "alpha", CostModel::Default1996());
  double inner_done = -1, outer_done = -1;
  h.Submit(Priority::kKernel, [&] {
    h.Charge(Duration::Micros(5));
    // A task submitted from within a task queues behind it.
    h.Submit(Priority::kKernel, [&] {
      h.Charge(Duration::Micros(2));
      h.AfterTask([&] { inner_done = s.Now().us(); });
    });
    h.AfterTask([&] { outer_done = s.Now().us(); });
  });
  s.Run();
  EXPECT_EQ(outer_done, 5.0);
  EXPECT_EQ(inner_done, 7.0);
}

TEST(Host, BatchScopeNestsAndUnwinds) {
  Simulator s;
  Host h(s, "alpha", CostModel::Default1996());
  EXPECT_FALSE(h.in_batch());
  {
    Host::BatchScope single(h, /*multi_frame=*/false);
    EXPECT_FALSE(h.in_batch());
    {
      Host::BatchScope burst(h);
      EXPECT_TRUE(h.in_batch());
      Host::BatchScope inner_single(h, /*multi_frame=*/false);
      EXPECT_TRUE(h.in_batch());
    }
    EXPECT_FALSE(h.in_batch());
  }
  try {
    Host::BatchScope burst(h);
    throw std::runtime_error("quarantined");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(h.in_batch());
}

TEST(Random, DeterministicFromSeed) {
  Random a(42), b(42), c(43);
  bool all_equal = true, any_diff_seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.NextU64();
    if (va != b.NextU64()) all_equal = false;
    if (va != c.NextU64()) any_diff_seed_differs = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_differs);
}

TEST(Random, UniformDoubleInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, UniformIntInclusiveBounds) {
  Random r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, BernoulliExtremes) {
  Random r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(Random, ExponentialMeanRoughlyCorrect) {
  Random r(11);
  const Duration mean = Duration::Micros(100);
  std::int64_t total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += r.Exponential(mean).ns();
  const double avg_us = static_cast<double>(total) / n / 1000.0;
  EXPECT_NEAR(avg_us, 100.0, 5.0);
}

TEST(CostModel, PresetsDiffer) {
  auto def = CostModel::Default1996();
  auto fast = CostModel::FastDriver1996();
  auto modern = CostModel::ModernHypothetical();
  EXPECT_LT(fast.interrupt_entry, def.interrupt_entry);
  EXPECT_LT(modern.syscall_entry, def.syscall_entry);
  EXPECT_LT(modern.copy_per_byte, def.copy_per_byte);
}

}  // namespace
}  // namespace sim
