// Wall-clock self-profiler for the simulation engine.
//
// sim::Tracer and MetricsRegistry account *virtual* time — where the modeled
// CPU went. The Profiler answers the other question the wall-clock
// performance program needs: where the *host* CPU goes while the engine
// runs. RAII probes (ProfileScope) sit on the hot paths — event dispatch,
// demux lookup, timer schedule/cancel/fire, scheduler pop/cascade, mbuf
// alloc/free/clone, deferred-queue hops — and record per-site call counts,
// cumulative wall nanoseconds (total and self), and a log2 latency
// histogram per site, plus byte counters for the allocation sites.
//
// Cost discipline:
//   * Disabled (the default), a probe is one relaxed load and one
//     predictable branch — asserted < 2% of the raise path by
//     bench_micro_dispatch. Defining PLEXUS_PROFILER_DISABLED at compile
//     time removes even that (the macros expand to nothing).
//   * Enabled (PLEXUS_PROFILE=1 in the environment, or SetEnabled(true)),
//     each probe takes two steady_clock reads. The profiler never touches
//     the virtual clock, the schedulers, or any per-host state, so every
//     virtual-time result is byte-identical with profiling on or off.
//
// The profiler is process-global and deliberately dependency-free (this
// header is included from net/, which must not depend on the sim layer
// proper): state is inline-static, hot functions are header-only, and only
// the exporters (ToJson / RankedTable — schema "plexus-profile-v1") live in
// profiler.cc. Single-threaded by design, like the simulator it measures.
#ifndef PLEXUS_SIM_PROFILER_H_
#define PLEXUS_SIM_PROFILER_H_

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace sim {

class ProfileScope;

// Per-site accumulators. Namespace-scope (not nested) so the class's inline
// static array below can be initialized where it is declared.
struct ProfilerSiteStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // wall ns inside the probe, children included
  std::uint64_t self_ns = 0;   // wall ns minus enclosed probes
  std::uint64_t buckets[64] = {};  // log2 histogram of per-call total ns
};

class Profiler {
 public:
  // Fixed probe sites: an array index, never a map lookup, on the hot path.
  enum Site : int {
    kEventRaise = 0,    // spin::Event::Raise body
    kDemuxLookup,       // key extraction + DemuxIndex bucket probe
    kHandlerGuard,      // residual/verify guard evaluation
    kTimerSchedule,     // Simulator::ScheduleAt
    kTimerCancel,       // Simulator::Cancel
    kTimerFire,         // popped event callback execution
    kSchedulerPop,      // TimerWheel::PopDueBefore (wheel scan)
    kSchedulerCascade,  // timing-wheel level cascade
    kMbufAlloc,         // Mbuf::Allocate / FromBytes (pooled or heap)
    kMbufFree,          // pooled segment retirement
    kMbufClone,         // ShareClone / DeepCopy / Split chains
    kDeferredHop,       // deferred-queue thread hop (admit -> start -> raise)
    kSiteCount,
  };

  enum ByteCounter : int {
    kMbufAllocBytes = 0,  // bytes requested from Allocate/FromBytes
    kMbufCloneBytes,      // packet bytes covered by clone/copy operations
    kByteCounterCount,
  };

  using SiteStats = ProfilerSiteStats;

  // One load + one branch when resolved; the first call consults
  // PLEXUS_PROFILE. Constant-initialized, so probes are safe from any
  // initialization order.
  static bool enabled() {
    if (state_ == 0) [[unlikely]] ResolveFromEnv();
    return state_ == 2;
  }
  static void SetEnabled(bool on) { state_ = on ? 2 : 1; }

  // Zeroes every site and byte counter (not the enabled state).
  static void Reset() {
    for (auto& s : stats_) s = SiteStats{};
    for (auto& b : bytes_) b = 0;
  }

  static const SiteStats& stats(Site s) { return stats_[s]; }
  static std::uint64_t bytes(ByteCounter c) { return bytes_[c]; }

  static void AddBytes(ByteCounter c, std::uint64_t n) {
    if (enabled()) bytes_[c] += n;
  }

  // Sum of self_ns over every site: the wall time the probes account for.
  // Probes nest (a demux lookup inside a raise inside a timer fire), so
  // self-time sums without double counting.
  static std::uint64_t TotalSelfNs() {
    std::uint64_t t = 0;
    for (const auto& s : stats_) t += s.self_ns;
    return t;
  }

  static const char* SiteName(int site);      // "event.raise", "timer.fire", ...
  static const char* ByteCounterName(int c);  // "mbuf.alloc_bytes", ...

  // {"schema":"plexus-profile-v1",...}: every site in fixed enum order with
  // counts, total/self ns, and occupied [upper_bound, count] bucket pairs.
  static std::string ToJson();
  // Human-readable table, sites ranked by self time (descending).
  static std::string RankedTable();

 private:
  friend class ProfileScope;

  static void ResolveFromEnv() {
    const char* env = std::getenv("PLEXUS_PROFILE");
    state_ = (env != nullptr && env[0] != '\0' && env[0] != '0') ? 2 : 1;
  }

  // Same power-of-two bucketing as sim::Histogram (bucket 0: v == 0;
  // bucket i: [2^(i-1), 2^i - 1]; bucket 63 saturates), restated here to
  // keep the header dependency-free.
  static int BucketIndex(std::uint64_t v) {
    if (v == 0) return 0;
    const int idx = 64 - std::countl_zero(v);
    return idx < 64 ? idx : 63;
  }

  static void Record(int site, std::uint64_t total_ns, std::uint64_t self_ns) {
    SiteStats& s = stats_[site];
    ++s.calls;
    s.total_ns += total_ns;
    s.self_ns += self_ns;
    ++s.buckets[BucketIndex(total_ns)];
  }

  static inline int state_ = 0;  // 0 = unresolved, 1 = disabled, 2 = enabled
  static inline ProfileScope* current_ = nullptr;  // innermost open probe
  static inline SiteStats stats_[kSiteCount] = {};
  static inline std::uint64_t bytes_[kByteCounterCount] = {};
};

// RAII probe. Construct with the site; wall time between construction and
// destruction accrues to the site's total, and to its self time minus any
// probes opened inside it (tracked through an intrusive parent chain).
class ProfileScope {
 public:
  explicit ProfileScope(Profiler::Site site) {
    if (!Profiler::enabled()) [[likely]] return;
    active_ = true;
    site_ = site;
    parent_ = Profiler::current_;
    Profiler::current_ = this;
    start_ns_ = NowNs();
  }
  ~ProfileScope() {
    if (!active_) [[likely]] return;
    const std::uint64_t end = NowNs();
    const std::uint64_t elapsed = end >= start_ns_ ? end - start_ns_ : 0;
    Profiler::current_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    Profiler::Record(site_, elapsed,
                     elapsed >= child_ns_ ? elapsed - child_ns_ : 0);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  ProfileScope* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  Profiler::Site site_{};
  bool active_ = false;
};

}  // namespace sim

// Compile-time guard: -DPLEXUS_PROFILER_DISABLED strips every probe from
// the binary. The default build keeps them behind the runtime check.
#if defined(PLEXUS_PROFILER_DISABLED)
#define PLEXUS_PROFILE_SCOPE(site) \
  do {                             \
  } while (false)
#define PLEXUS_PROFILE_BYTES(counter, n) \
  do {                                   \
  } while (false)
#else
#define PLEXUS_PROFILE_SCOPE(site) \
  ::sim::ProfileScope plexus_profile_scope_##site(::sim::Profiler::site)
#define PLEXUS_PROFILE_BYTES(counter, n) \
  ::sim::Profiler::AddBytes(::sim::Profiler::counter, (n))
#endif

#endif  // PLEXUS_SIM_PROFILER_H_
