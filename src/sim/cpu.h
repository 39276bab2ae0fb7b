// A simulated single processor with priority preemption.
//
// Work is submitted as tasks at one of three priorities (interrupt > kernel
// > thread). A task's *logic* executes immediately when the task is picked
// up (virtual time does not advance while C++ code runs); the task then
// occupies the CPU for the virtual duration it charged via
// CpuContext::Charge. Side effects of the work are registered with one of
// two completions:
//   - CpuContext::After fires at the task's virtual completion instant,
//     once all of its charged work has executed;
//   - CpuContext::AfterCharged fires once the task has executed the work
//     charged *before the call* (slice start + charged-so-far), so a task
//     that does several independent units of work (a burst of frames) can
//     release each unit's effect when that unit is done, not when the last
//     one is.
// Entries of the second kind that sit at or past the task's total charge
// fire at completion, in registration order, before the After callbacks.
// Each running slice arms at most one simulator event for them, re-armed
// as entries fire.
//
// Preemption: a task arriving at a strictly higher priority suspends the
// running task's remaining busy time (the device interrupt cutting into a
// user process); the preempted remainder resumes — with its unfired side
// effects intact, shifted by the time the preemption took — once
// higher-priority work drains. Within one priority level scheduling is
// FIFO, non-preemptive.
#ifndef PLEXUS_SIM_CPU_H_
#define PLEXUS_SIM_CPU_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace sim {

// Completion side effect registered with CpuContext::After. Inline capacity
// covers every engine capture (driver completions carry a couple of
// pointers); oversized captures heap-box like std::function did.
using AfterFn = SmallFn<void(), 48>;

enum class Priority : int {
  kInterrupt = 0,  // device interrupt handlers
  kKernel = 1,     // in-kernel protocol processing, syscall service
  kThread = 2,     // kernel/user threads
};
inline constexpr int kNumPriorities = 3;

class CpuContext {
 public:
  // Accumulates virtual CPU time consumed by the current task.
  void Charge(Duration d) { charged_ += d; }

  // Registers a callback to run (off-CPU) at the task's completion instant.
  void After(AfterFn fn) { after_.push_back(std::move(fn)); }

  // Registers a callback to run (off-CPU) once the task has executed the
  // work charged so far: at slice start + charged(), delayed by any
  // preemption in between. Never later than the completion instant.
  void AfterCharged(AfterFn fn) {
    charged_after_.push_back(ChargedAfter{charged_, std::move(fn)});
  }

  Duration charged() const { return charged_; }
  TimePoint start_time() const { return start_; }

 private:
  friend class Cpu;
  // An AfterCharged entry: `at` is its offset into the task's busy time.
  struct ChargedAfter {
    Duration at;
    AfterFn fn;
  };
  explicit CpuContext(TimePoint start) : start_(start) {}
  TimePoint start_;
  Duration charged_;
  std::vector<AfterFn> after_;
  std::vector<ChargedAfter> charged_after_;  // non-decreasing `at`
};

class Cpu {
 public:
  explicit Cpu(Simulator& s) : sim_(s) {}
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // Inline capacity sized for Host::Submit's wrapper (host pointer + the
  // submitted 64-byte Host::TaskFn): a queued task is one deque slot, no
  // heap boxing on the packet path.
  using Task = SmallFn<void(CpuContext&), 80>;

  // Enqueues work; it starts when the CPU is free of equal-or-higher
  // priority work, preempting lower-priority work.
  void Submit(Priority p, Task work);

  bool idle() const { return !running_.has_value(); }
  std::size_t queued() const;

  // Accounting. busy_total accumulates as slices of work retire (including
  // partial slices of preempted tasks).
  Duration busy_total() const { return busy_total_; }
  std::size_t tasks_run() const { return tasks_run_; }
  std::size_t preemptions() const { return preemptions_; }
  void ResetAccounting() {
    busy_total_ = Duration::Zero();
    tasks_run_ = 0;
    preemptions_ = 0;
  }

  // Power-fail reset: discards every queued task and the running slice's
  // remainder (none of their unfired side effects, of either kind, ever
  // fire). Used by host crash injection — queued lambdas capture protocol
  // objects about to be destroyed, so they must die first. Must not be
  // called from inside task logic. Accounting survives: the silicon
  // remembers nothing, the simulator's books do.
  void Reset();

  // Utilization over a window, given busy_total snapshots taken by caller.
  static double Utilization(Duration busy, Duration window) {
    if (window.ns() <= 0) return 0.0;
    double u = busy / window;
    return u > 1.0 ? 1.0 : u;
  }

 private:
  using ChargedAfter = CpuContext::ChargedAfter;

  // A queued unit: either fresh work, or the suspended remainder of a
  // preempted task.
  struct Pending {
    Task work;                   // null for a resumed remainder
    Duration remaining;          // for resumed remainders
    std::vector<AfterFn> after;  // carried by remainders
    // Unfired AfterCharged entries of a remainder, offsets relative to
    // the remainder's start.
    std::vector<ChargedAfter> charged_after;
  };
  struct Running {
    int prio;
    TimePoint slice_start;
    TimePoint end;
    EventId end_event;
    std::vector<AfterFn> after;
    std::vector<ChargedAfter> charged_after;  // offsets from slice_start
    std::size_t next_charged = 0;             // first unfired entry
    EventId charged_event = kInvalidEventId;  // armed for that entry
  };

  void MaybeStartNext();
  void StartPending(int prio, Pending p);
  void PreemptRunning();
  void CompleteRunning();
  // Arms the running slice's event for its next AfterCharged entry that
  // falls strictly inside the slice (later ones fire at completion).
  void ArmChargedAfter();
  void FireChargedAfter();

  Simulator& sim_;
  std::deque<Pending> queues_[kNumPriorities];
  std::optional<Running> running_;
  bool in_logic_ = false;  // a fresh task's C++ logic is executing right now
  Duration busy_total_;
  std::size_t tasks_run_ = 0;
  std::size_t preemptions_ = 0;
};

}  // namespace sim

#endif  // PLEXUS_SIM_CPU_H_
