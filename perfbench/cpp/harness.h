// The benchmark harness: one pass of a workload, its clocks, and its ledger.
//
// A pass builds a fresh simulation from the seed, runs it to quiescence and
// reports three kinds of numbers:
//   * virtual-clock metrics (Pass::virt) — exact, and required to repeat
//     bit-for-bit across passes of one seed and across traced/untraced runs;
//   * host-clock costs — thread CPU time (CLOCK_THREAD_CPUTIME_ID) of the
//     set-up and of the timed run;
//   * the per-layer ledger (Pass::layer) — counters read from the public
//     instruments of every simulator and host the pass built, plus, in a
//     traced pass, the engine profiler, the tracer's charge ledger and the
//     benchmark's own spans.
#ifndef PERFBENCH_CPP_HARNESS_H_
#define PERFBENCH_CPP_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "os/socket_host.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace perfbench {

// Thread CPU time in nanoseconds: the host clock every host metric uses.
inline std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Spans recorded from the benchmark's own code around each call into a
// layer. Disabled (untraced passes) a span is one branch. Enabled, it takes
// two steady-clock reads and nests like sim::ProfileScope, so each record
// carries total and self time; records are kept in memory and written once
// the run ends.
class SpanLog {
 public:
  struct Record {
    const char* name;        // "core.setup", "core.connect", "app.handler", ...
    std::uint64_t request;   // shared by every span of one request; 0 = none
    std::uint32_t depth;
    std::int64_t start_ns;   // steady clock, relative to Reset()
    std::int64_t total_ns;
    std::int64_t self_ns;
  };

  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* name_;
    std::uint64_t request_;
    std::int64_t start_ = 0;
    std::int64_t child_ns_ = 0;
    Scope* parent_ = nullptr;
    bool active_ = false;
  };

  // Clears the records and starts (or stops) recording.
  static void Reset(bool enabled);
  // Stops recording, keeping the records.
  static void Stop() { enabled_ = false; }
  static bool enabled() { return enabled_; }
  static const std::vector<Record>& records() { return records_; }
  // Sum of total (or self) ns over every record with this name.
  static std::int64_t TotalNs(const std::string& name);
  static std::int64_t SelfNs(const std::string& name);
  // {"schema":"perfbench-spans-v1",...}: per-name totals plus every record.
  static std::string ToJson(const std::string& workload, std::uint64_t seed);

 private:
  static inline bool enabled_ = false;
  static inline Scope* current_ = nullptr;
  static inline std::int64_t origin_ns_ = 0;
  static inline std::uint32_t depth_ = 0;
  static inline std::vector<Record> records_;
};

// Everything one pass produced.
struct Pass {
  std::map<std::string, double> virt;            // virtual-clock metrics
  std::map<std::string, std::uint64_t> samples;  // sample count per metric
  std::map<std::string, double> layer;           // per-layer ledger
  std::vector<std::string> failures;             // correctness gates that failed
  std::uint64_t attempted = 0;                   // legitimate operations
  std::uint64_t failed = 0;
  std::uint64_t wire_frames = 0;                 // frames transmitted or injected
  std::int64_t setup_cpu_ns = 0;
  std::int64_t total_cpu_ns = 0;
};

// What a workload sees while it runs: the seed, the traced flag, a set-up
// stopwatch and the collectors that fold instruments into the pass.
class Context {
 public:
  Context(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  std::uint64_t seed() const { return seed_; }
  bool traced() const { return traced_; }
  Pass& pass() { return pass_; }

  // RAII: thread CPU spent inside accrues to the pass's set-up time.
  class SetupPhase {
   public:
    explicit SetupPhase(Context& c) : c_(c), start_(ThreadCpuNs()) {}
    ~SetupPhase() { c_.pass_.setup_cpu_ns += ThreadCpuNs() - start_; }
    SetupPhase(const SetupPhase&) = delete;
    SetupPhase& operator=(const SetupPhase&) = delete;

   private:
    Context& c_;
    std::int64_t start_;
  };

  // Arms the simulator's tracer in traced passes. Call before building hosts.
  void Prepare(sim::Simulator& sim) const;

  // Folds one finished simulation into the ledger: scheduler instruments and
  // the tracer's per-category virtual-ns charge ledger.
  void CollectSim(sim::Simulator& sim);
  // Folds one host's registry (summed by instrument; "nicN.*" folds into
  // "drivers.*") and its CPU busy time. PlexusHost also contributes its
  // deferred-queue peak; both kinds check that their mbuf pool drained.
  void CollectHost(sim::Host& host);
  void CollectHost(core::PlexusHost& host);
  void CollectHost(os::SocketHost& host);

  // Runs `sim` for `d` in slices, each inside a "sim.run_for" span.
  void RunFor(sim::Simulator& sim, sim::Duration d,
              sim::Duration slice = sim::Duration::Seconds(1));

  void Gate(bool ok, const std::string& what) {
    if (!ok) pass_.failures.push_back(what);
  }
  void Operations(std::uint64_t attempted, std::uint64_t failed) {
    pass_.attempted += attempted;
    pass_.failed += failed;
  }
  void Virt(const std::string& name, double value, std::uint64_t samples = 1) {
    pass_.virt[name] = value;
    pass_.samples[name] = samples;
  }
  void AddLayer(const std::string& name, double value) { pass_.layer[name] += value; }
  void MaxLayer(const std::string& name, double value) {
    double& v = pass_.layer[name];
    v = std::max(v, value);
  }
  // Frames injected straight into a NIC (DeliverFromWire). Frames a NIC
  // transmits are counted from the drivers' instruments.
  void Frames(std::uint64_t n) { pass_.wire_frames += n; }

 private:
  std::uint64_t seed_;
  bool traced_;
  Pass pass_;
};

// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 if empty.
double Percentile(std::vector<std::int64_t> v, double q);

// Deterministic per-seed stream: splitmix64 of (seed, stream, index). Used
// for payload bytes that must be regenerated independently at the receiver.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);
// Fills `out` with the payload bytes at [offset, offset + out.size()) of
// the stream.
void FillStream(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                std::span<std::byte> out);

// The workloads (one file each).
void ConnChurn(Context& ctx);
void BulkTcp(Context& ctx);
void UdpFlood(Context& ctx);
void PaperCells(Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_HARNESS_H_
