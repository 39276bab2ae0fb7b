// Shared measurement harness for the paper-reproduction benchmarks.
//
// Each function builds a fresh two- or three-host simulated network, runs
// the workload, and returns the metric the paper reports. Everything is
// deterministic; "measurement" means reading the virtual clock / CPU
// accounting, not wall time.
#ifndef PLEXUS_BENCH_BENCH_COMMON_H_
#define PLEXUS_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "sim/cost_model.h"

namespace bench {

// --- observability capture -------------------------------------------------------

// Optional in/out argument for the measurement functions below. Tracing
// never perturbs the virtual clock, so a traced run measures exactly the
// same numbers as an untraced one; it only adds the Chrome trace and the
// per-category CPU breakdown to the capture.
struct RunObservability {
  bool enable_tracing = false;        // in: switch the simulator's tracer on
  std::string metrics_json;           // out: {"a":{...},"b":{...}} per-host registry
  std::string charge_breakdown_json;  // out: per-category virtual-ns ledger
  std::string chrome_trace_json;      // out: chrome://tracing events (traced runs)
};

// --- Figure 5: UDP round-trip latency ------------------------------------------

// Application-to-application RTT for `payload` bytes over `profile`, with
// the application as an in-kernel Plexus extension.
double PlexusUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                      core::HandlerMode mode, std::size_t payload = 8, int pings = 16,
                      RunObservability* obs = nullptr);

// Same workload through the monolithic baseline's sockets.
double OsUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                  std::size_t payload = 8, int pings = 16, RunObservability* obs = nullptr);

// "the minimal round trip time using our hardware as measured between the
// device drivers": raw frame echo at interrupt level, no protocol stack.
double DriverUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                      std::size_t payload = 8, int pings = 16);

// --- Section 4.2: TCP throughput -----------------------------------------------

double PlexusTcpThroughputMbps(const drivers::DeviceProfile& profile,
                               const sim::CostModel& costs,
                               std::size_t transfer_bytes = 4 * 1024 * 1024,
                               RunObservability* obs = nullptr);

double OsTcpThroughputMbps(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                           std::size_t transfer_bytes = 4 * 1024 * 1024,
                           RunObservability* obs = nullptr);

// Driver-to-driver blast (the paper's ~53 Mb/s reliable ceiling on ATM).
double DriverThroughputMbps(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                            std::size_t transfer_bytes = 4 * 1024 * 1024);

// --- Figure 6: video server CPU utilization -------------------------------------

struct VideoCpuPoint {
  int streams;
  double utilization;    // 0..1
  bool net_saturated;    // offered load >= link rate
};
VideoCpuPoint VideoServerCpu(bool plexus, int streams, const sim::CostModel& costs);

// --- Figure 7: forwarding latency ------------------------------------------------

struct ForwardingResult {
  double connect_us;        // client SYN -> established (through the middle).
                            // NB: the user-level splice "accepts" locally, so
                            // its connect time does not prove backend
                            // reachability (the semantics the paper says it
                            // violates).
  double request_rtt_us;    // small request/response round trip
  double first_response_us; // connect start -> first byte back from backend
};
ForwardingResult PlexusForwarding(const sim::CostModel& costs);
ForwardingResult DuForwarding(const sim::CostModel& costs);

// --- machine-readable output ------------------------------------------------------

// One measured cell of a paper table/figure: what the paper printed next to
// what this reproduction measured, plus optional captured observability.
struct BenchRecord {
  std::string experiment;      // e.g. "fig5_udp_rtt"
  std::string device;          // device profile name
  std::string system;          // e.g. "plexus-interrupt", "digital-unix"
  std::string metric;          // e.g. "rtt", "throughput"
  std::string unit;            // e.g. "us", "Mb/s"
  double measured = 0;
  std::string paper_expected;  // verbatim from the paper ("<600", "8.9", ...)
  std::string metrics_json;            // raw JSON, "" = not captured
  std::string charge_breakdown_json;   // raw JSON, "" = not captured
};

// Accumulates records and writes
// {"schema":"plexus-bench-v1","meta":{...},"records":[...]}.
// The meta block carries run provenance — wall-clock duration since the
// reporter was constructed, host OS/arch/cpu info, and the git SHA from
// PLEXUS_GIT_SHA (scripts/bench.sh exports it), and the packet engine the
// run used ("batched", or "per-packet" under PLEXUS_BATCH=off) — so a
// checked-in baseline records where its numbers came from, and
// scripts/bench_compare.py refuses to diff runs of different engines.
// Everything under "records" stays deterministic: records in Add order,
// doubles printed with a fixed format, captured JSON embedded verbatim.
// Comparators (scripts/bench_compare.py, byte-identity tests) look only at
// "records".
class JsonReporter {
 public:
  JsonReporter() : wall_start_(std::chrono::steady_clock::now()) {}
  void Add(BenchRecord r) { records_.push_back(std::move(r)); }
  std::string ToJson() const;
  bool WriteTo(const std::string& path) const;
  std::size_t size() const { return records_.size(); }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<BenchRecord> records_;
};

// --- shape verdicts ----------------------------------------------------------------

// The paper's shape claims, checked where a bench measures them. Check()
// prints "shape: <claim>: HOLDS|VIOLATED" and remembers each violation;
// main() returns ExitCode(), so a violated claim fails the bench run
// instead of scrolling past in its output.
class ShapeVerdicts {
 public:
  // `where` names the figure/table cell in the failure report.
  void Check(const std::string& where, const std::string& claim, bool holds);
  // 0 when every claim held; otherwise lists each violated claim on stderr
  // and returns 1.
  int ExitCode() const;

 private:
  std::vector<std::string> violated_;
};

// Returns the operand following `flag` in argv ("" if absent): the benches
// take `--json <path>` and `--trace <path>`.
std::string ArgAfter(int argc, char** argv, const std::string& flag);

// --- table formatting -------------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, double measured, const char* unit,
                     const char* paper = nullptr) {
  if (paper != nullptr) {
    std::printf("  %-44s %10.1f %-6s (paper: %s)\n", label.c_str(), measured, unit, paper);
  } else {
    std::printf("  %-44s %10.1f %-6s\n", label.c_str(), measured, unit);
  }
}

}  // namespace bench

#endif  // PLEXUS_BENCH_BENCH_COMMON_H_
