// A simulated workstation: one CPU, a cost model, and an identity.
//
// Host is the charging façade the protocol code talks to. Protocol modules
// never see Cpu or CpuContext directly; they run inside a task submitted via
// Host::Submit and record consumed CPU time with Host::Charge. Because the
// simulator is single-threaded, the "current context" is a plain member.
#ifndef PLEXUS_SIM_HOST_H_
#define PLEXUS_SIM_HOST_H_

#include <cassert>
#include <functional>
#include <string>
#include <utility>

#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"
#include "sim/tracer.h"

namespace net {
class MbufPool;
}  // namespace net

namespace sim {

// A budget fence bounds the CPU time the code it brackets may charge.
// While a fence is active, every Charge() accrues against its limit; the
// charge that would cross the limit is truncated to exactly the remaining
// budget (so the CPU is billed precisely the budget, no more) and the
// fence's on_exceeded callback fires. The callback is expected to throw —
// that is how the SPIN dispatcher asynchronously terminates an over-budget
// handler mid-execution (paper Section 3.3). Fences nest: an inner fence
// also accrues against every enclosing one, and the tightest fence trips.
struct BudgetFence {
  Duration limit;
  Duration used;
  std::function<void()> on_exceeded;  // must throw; re-fires if the fenced
                                      // code swallows it and charges again
  BudgetFence* prev = nullptr;
};

class Host {
 public:
  Host(Simulator& s, std::string name, CostModel costs, std::uint64_t seed = 1)
      : sim_(s),
        name_(std::move(name)),
        costs_(costs),
        cpu_(s),
        rng_(seed),
        tracer_(&s.tracer()),
        trace_track_(tracer_->RegisterTrack(name_)) {}
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  virtual ~Host() = default;

  const std::string& name() const { return name_; }
  Simulator& simulator() { return sim_; }
  TimePoint Now() const { return sim_.Now(); }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  const CostModel& costs() const { return costs_; }
  CostModel& mutable_costs() { return costs_; }
  Random& rng() { return rng_; }

  // Per-host instruments. Protocol modules resolve named counters once at
  // construction; snapshots/JSON come from the registry directly.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // This host's row in the simulation-wide trace.
  Tracer& tracer() { return *tracer_; }
  bool tracing() const { return tracer_->enabled(); }
  int trace_track() const { return trace_track_; }

  // The packet id the currently executing code path is working on behalf
  // of; spans opened without an explicit id inherit it. Scoped via
  // PacketTraceScope below.
  std::uint64_t current_trace_id() const { return current_trace_id_; }
  std::uint64_t SetCurrentTraceId(std::uint64_t id) {
    return std::exchange(current_trace_id_, id);
  }

  // Marks a point event on this host's trace track (the structured
  // replacement for the old printf-style sim::Trace::Log). Templated so the
  // call-site string literals are not materialized into std::strings unless
  // tracing is actually on — with ~2 instants per packet, the eager
  // conversions were measurable wall-clock on the disabled path.
  template <typename N, typename C>
  void TraceInstant(N&& name, C&& category, std::uint64_t trace_id = 0) {
    if (!tracing()) return;
    tracer_->RecordInstant(
        trace_track_, Now(),
        in_task() ? charged_so_far() : Duration::Zero(),
        std::string(std::forward<N>(name)), std::string(std::forward<C>(category)),
        trace_id != 0 ? trace_id : current_trace_id_);
  }

  // Submits work to this host's CPU. While the work runs, Charge()/After()
  // apply to its task context. TaskFn keeps the capture inline in the CPU
  // queue slot (std::function heap-boxed anything past 16 bytes; this was
  // one allocation per submitted task on the packet path).
  using TaskFn = SmallFn<void(), 64>;
  void Submit(Priority p, TaskFn work) {
    cpu_.Submit(p, [this, work = std::move(work)](CpuContext& ctx) {
      CpuContext* prev = current_;
      current_ = &ctx;
      work();
      current_ = prev;
    });
  }

  // Records d of CPU time against the currently running task. Must only be
  // called from within work submitted via Submit(). If a budget fence is
  // active the charge is measured against it; crossing the tightest limit
  // bills exactly the remaining budget and invokes that fence's
  // on_exceeded (which throws, abandoning the fenced code's remaining side
  // effects).
  void Charge(Duration d) {
    assert(current_ != nullptr && "Charge() outside of a CPU task");
    if (fence_ == nullptr) {
      current_->Charge(d);
      tracer_->OnCharge(trace_track_, d);
      return;
    }
    // Find the tightest remaining budget across active fences. A charge
    // that lands exactly on a limit is still within budget; only exceeding
    // it trips the fence.
    Duration allow = d;
    BudgetFence* tripped = nullptr;
    for (BudgetFence* f = fence_; f != nullptr; f = f->prev) {
      const Duration remaining = f->limit - f->used;
      if (remaining < allow) {
        allow = remaining;
        tripped = f;
      }
    }
    for (BudgetFence* f = fence_; f != nullptr; f = f->prev) f->used += allow;
    current_->Charge(allow);
    // Attribute what was actually billed: a fence-truncated charge must show
    // up in the trace as the truncated amount, or the per-category ledger
    // would exceed the CPU's busy time.
    tracer_->OnCharge(trace_track_, allow);
    if (tripped != nullptr) tripped->on_exceeded();
  }

  // Activates / deactivates a budget fence for the current task. Strict
  // stack discipline: the fence passed to Pop must be the innermost one.
  void PushBudgetFence(BudgetFence* f) {
    f->prev = fence_;
    fence_ = f;
  }
  void PopBudgetFence(BudgetFence* f) {
    assert(fence_ == f && "budget fences must pop in LIFO order");
    fence_ = f->prev;
  }

  // Schedules fn for the completion instant of the current task.
  void AfterTask(AfterFn fn) {
    assert(current_ != nullptr && "AfterTask() outside of a CPU task");
    current_->After(std::move(fn));
  }

  // Schedules fn for the instant the current task has executed the work
  // charged so far (CpuContext::AfterCharged).
  void AfterCharged(AfterFn fn) {
    assert(current_ != nullptr && "AfterCharged() outside of a CPU task");
    current_->AfterCharged(std::move(fn));
  }

  // Brackets one batched unit of work that carries several frames (an rx
  // burst's upcall, a coalesced graph hop). Code inside it releases each
  // frame's effects when that frame's work is done, not when the whole
  // unit's task retires: NAPI transmits from inside its poll loop. Nests;
  // a scope constructed with multi_frame=false leaves the state as is.
  class BatchScope {
   public:
    explicit BatchScope(Host& h, bool multi_frame = true)
        : host_(h), prev_(std::exchange(h.in_batch_, h.in_batch_ || multi_frame)) {}
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;
    ~BatchScope() { host_.in_batch_ = prev_; }

   private:
    Host& host_;
    bool prev_;
  };
  bool in_batch() const { return in_batch_; }

  // The host's bounded mbuf pool, or nullptr when the owner never attached
  // one (raw driver tests / benches keep unbounded allocation). A pointer
  // only: sim must not depend on net, and ownership stays with the
  // PlexusHost/SocketHost that wires the pool's hooks into metrics().
  net::MbufPool* mbuf_pool() const { return mbuf_pool_; }
  void set_mbuf_pool(net::MbufPool* pool) { mbuf_pool_ = pool; }

  bool in_task() const { return current_ != nullptr; }
  Duration charged_so_far() const {
    assert(current_ != nullptr);
    return current_->charged();
  }

 private:
  Simulator& sim_;
  std::string name_;
  CostModel costs_;
  Cpu cpu_;
  Random rng_;
  CpuContext* current_ = nullptr;
  BudgetFence* fence_ = nullptr;  // innermost active fence (intrusive stack)
  bool in_batch_ = false;         // inside a BatchScope
  MetricsRegistry metrics_;
  Tracer* tracer_;
  int trace_track_;
  std::uint64_t current_trace_id_ = 0;
  net::MbufPool* mbuf_pool_ = nullptr;
};

// RAII span on a host's trace track. Free when tracing is disabled: the
// templated constructor/Begin check tracing before converting the name and
// category to std::string, so call sites passing literals (`TraceSpan
// span(host, "tcp.input", "proto")`) build no strings at all on the
// disabled path — at ~4 spans per packet those conversions were a
// measurable slice of the wall-clock profile. The destructor closes the
// span even when the scope unwinds via exception, so terminated handlers
// still leave balanced traces.
class TraceSpan {
 public:
  TraceSpan() = default;
  template <typename N, typename C>
  TraceSpan(Host& h, N&& name, C&& category, std::uint64_t trace_id = 0) {
    Begin(h, std::forward<N>(name), std::forward<C>(category), trace_id);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(track_);
  }

  template <typename N, typename C>
  void Begin(Host& h, N&& name, C&& category, std::uint64_t trace_id = 0) {
    if (!h.tracing() || tracer_ != nullptr) return;
    BeginSlow(h, std::string(std::forward<N>(name)),
              std::string(std::forward<C>(category)), trace_id);
  }

 private:
  // Out of the template so the begin sequence is emitted once, not per
  // name/category type combination.
  void BeginSlow(Host& h, std::string name, std::string category,
                 std::uint64_t trace_id) {
    tracer_ = &h.tracer();
    track_ = h.trace_track();
    tracer_->BeginSpan(
        track_, h.Now(),
        h.in_task() ? h.charged_so_far() : Duration::Zero(), std::move(name),
        std::move(category), trace_id != 0 ? trace_id : h.current_trace_id());
  }

  Tracer* tracer_ = nullptr;
  int track_ = 0;
};

// Scopes the host's current packet trace id: spans opened inside inherit
// it without every layer having to thread the id through its signatures.
class PacketTraceScope {
 public:
  PacketTraceScope(Host& h, std::uint64_t id)
      : host_(h), prev_(h.SetCurrentTraceId(id)) {}
  PacketTraceScope(const PacketTraceScope&) = delete;
  PacketTraceScope& operator=(const PacketTraceScope&) = delete;
  ~PacketTraceScope() { host_.SetCurrentTraceId(prev_); }

 private:
  Host& host_;
  std::uint64_t prev_;
};

}  // namespace sim

#endif  // PLEXUS_SIM_HOST_H_
