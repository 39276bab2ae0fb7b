// perfbench: runs one workload for a while and prints one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Untraced (--trace 0), passes of the workload repeat until --seconds of
// wall time have gone by (at least three). Every pass must produce the same
// virtual-clock metrics; host costs are reported per pass. Traced
// (--trace 1), untraced and traced passes alternate: the traced ones arm
// the engine profiler, the simulator tracers and the benchmark's spans, and
// must reproduce the untraced virtual-clock metrics exactly. The span
// records of the last traced pass go to --trace-out.
//
// perfbench/run.py builds this program, runs it and turns its line into
// the benchmark's result; see perfbench/README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "perfbench/cpp/harness.h"
#include "sim/profiler.h"

namespace perfbench {
namespace {

using WorkloadFn = void (*)(Context&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"conn_churn", ConnChurn},
      {"bulk_tcp", BulkTcp},
      {"udp_flood", UdpFlood},
      {"paper_cells", PaperCells},
  };
  return w;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t ProfilerSelf(std::initializer_list<sim::Profiler::Site> sites) {
  std::uint64_t t = 0;
  for (const auto s : sites) t += sim::Profiler::stats(s).self_ns;
  return t;
}

// Ratios and process-level numbers that only make sense once a pass is
// complete, plus, in a traced pass, the profiler and span totals.
void Finish(Pass& p, bool traced) {
  auto& l = p.layer;
  l["sim.timer_fire_ratio"] = Ratio(l["sim.timer_fires"], l["sim.timer_schedules"]);
  l["spin.guard_reject_ratio"] = Ratio(l["spin.guard_rejections"], l["spin.guard_evals"]);
  l["spin.frames_per_batch_raise"] = Ratio(l["spin.batch_packets"], l["spin.batch_raises"]);
  l["spin.deferred_shed_ratio"] =
      Ratio(l["spin.deferred_shed"], l["spin.deferred_admitted"] + l["spin.deferred_shed"]);
  l["drivers.batched_frame_share"] = Ratio(l["drivers.rx_burst_frames"], l["drivers.rx_frames"]);
  double slab_peak = 0;
  for (const auto& [name, v] : l) {
    if (name.starts_with("slab.")) slab_peak += v;
  }
  l["sim.slab_peak_bytes"] = slab_peak;
  if (auto it = p.virt.find("conn_open_peak"); it != p.virt.end()) {
    l["slab_bytes_per_conn"] = Ratio(slab_peak, it->second);
  }
  if (l["proto.malformed_drops"] != 0) {
    p.failures.push_back("proto.*.malformed_drops reads 0 on benign traffic");
  }
  p.wire_frames += static_cast<std::uint64_t>(l["drivers.tx_frames"]);
  p.virt["sim_cpu_ns_per_frame"] = Ratio(l["sim.cpu_busy_ns"], static_cast<double>(p.wire_frames));
  p.samples["sim_cpu_ns_per_frame"] = p.wire_frames;
  if (!traced) return;
  using P = sim::Profiler;
  l["sim.self_host_ns"] = static_cast<double>(
      ProfilerSelf({P::kSchedulerPop, P::kTimerSchedule, P::kTimerCancel, P::kSchedulerCascade}));
  l["sim.timer_fire_self_host_ns"] = static_cast<double>(ProfilerSelf({P::kTimerFire}));
  l["spin.self_host_ns"] = static_cast<double>(
      ProfilerSelf({P::kEventRaise, P::kDemuxLookup, P::kHandlerGuard, P::kDeferredHop}));
  l["net.self_host_ns"] =
      static_cast<double>(ProfilerSelf({P::kMbufAlloc, P::kMbufFree, P::kMbufClone}));
  l["net.mbuf_allocs"] = static_cast<double>(P::stats(P::kMbufAlloc).calls);
  l["net.mbuf_clones"] = static_cast<double>(P::stats(P::kMbufClone).calls);
  l["net.mbuf_clone_bytes"] = static_cast<double>(P::bytes(P::kMbufCloneBytes));
  l["core.setup_host_ns"] = static_cast<double>(SpanLog::TotalNs("core.setup"));
  l["core.connect_host_ns"] = static_cast<double>(SpanLog::TotalNs("core.connect"));
  l["drivers.deliver_host_ns"] = static_cast<double>(SpanLog::TotalNs("drivers.deliver"));
  l["app.handler_host_ns"] = static_cast<double>(SpanLog::SelfNs("app.handler"));
  l["sim.run_for_self_host_ns"] = static_cast<double>(SpanLog::SelfNs("sim.run_for"));
  l["trace.spans"] = static_cast<double>(SpanLog::records().size());
}

Pass RunPass(WorkloadFn fn, std::uint64_t seed, bool traced) {
  sim::Profiler::SetEnabled(traced);
  sim::Profiler::Reset();
  SpanLog::Reset(traced);
  Context ctx(seed, traced);
  const std::int64_t start = ThreadCpuNs();
  fn(ctx);
  ctx.pass().total_cpu_ns = ThreadCpuNs() - start;
  sim::Profiler::SetEnabled(false);
  SpanLog::Stop();
  Finish(ctx.pass(), traced);
  return std::move(ctx.pass());
}

// Peak resident set of this program image (VmHWM). getrusage's ru_maxrss
// would also carry the parent's peak across fork + exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

template <typename Map>
std::string Object(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += Str(k);
    out += ':';
    out += Num(static_cast<double>(v));
  }
  return out + "}";
}

template <typename T, typename Fn>
std::string List(const std::vector<T>& v, Fn format) {
  std::string out = "[";
  for (const T& x : v) {
    if (out.size() > 1) out += ',';
    out += format(x);
  }
  return out + "]";
}

// The virtual metric whose value differs between two passes, or "".
std::string FirstDifference(const Pass& a, const Pass& b) {
  if (a.virt.size() != b.virt.size()) return "(metric set)";
  for (const auto& [k, v] : a.virt) {
    auto it = b.virt.find(k);
    if (it == b.virt.end() || std::memcmp(&it->second, &v, sizeof(v)) != 0) return k;
  }
  if (a.attempted != b.attempted || a.failed != b.failed) return "(operations)";
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <conn_churn|bulk_tcp|udp_flood|paper_cells> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto wl = Workloads().find(args["--workload"]);
  if (wl == Workloads().end() || args["--seed"].empty() || args["--seconds"].empty()) return Usage();
  const std::uint64_t seed = std::stoull(args["--seed"]);
  const double seconds = std::stod(args["--seconds"]);
  const bool trace = args["--trace"] == "1";

  // Passes are checked against the first as they finish and then dropped,
  // keeping only their host times, so memory does not grow with the count.
  std::optional<Pass> first, last_traced;
  std::vector<std::string> failures;
  std::vector<double> setup_s, cpu_s, traced_cpu_s;
  auto check = [&](Pass p, bool traced_pass) {
    const double run_s = static_cast<double>(p.total_cpu_ns - p.setup_cpu_ns) / 1e9;
    if (!first) {
      failures = p.failures;
      first = std::move(p);
      setup_s.push_back(static_cast<double>(first->setup_cpu_ns) / 1e9);
      cpu_s.push_back(run_s);
      return;
    }
    if (const std::string d = FirstDifference(*first, p); !d.empty()) {
      failures.push_back("virtual-clock metric differs between passes of one seed" +
                         std::string(traced_pass ? " (traced vs untraced): " : ": ") + d);
    }
    if (traced_pass) {
      traced_cpu_s.push_back(run_s);
      last_traced = std::move(p);
    } else {
      setup_s.push_back(static_cast<double>(p.setup_cpu_ns) / 1e9);
      cpu_s.push_back(run_s);
    }
  };
  const auto wall_start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  };
  constexpr std::size_t kMinPasses = 3;
  while (cpu_s.size() < kMinPasses || (trace && traced_cpu_s.size() < kMinPasses) ||
         elapsed() < seconds) {
    check(RunPass(wl->second, seed, false), false);
    if (trace) check(RunPass(wl->second, seed, true), true);
  }
  if (last_traced) {
    for (const std::string& f : last_traced->failures) failures.push_back("traced: " + f);
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());

  std::string out = "{\"workload\":" + Str(wl->first) + ",\"seed\":" + std::to_string(seed) +
                    ",\"trace\":" + (trace ? "1" : "0") + ",\"wall_s\":" + Num(elapsed()) +
                    ",\"virtual\":" + Object(first->virt) + ",\"samples\":" + Object(first->samples) +
                    ",\"wire_frames\":" + std::to_string(first->wire_frames) +
                    ",\"setup_s\":" + List(setup_s, Num) + ",\"host_cpu_s\":" + List(cpu_s, Num) +
                    ",\"peak_rss_mb\":" + Num(PeakRssMb()) +
                    ",\"attempted\":" + std::to_string(first->attempted) +
                    ",\"failed\":" + std::to_string(first->failed) + ",\"failures\":" + List(failures, Str);
  if (trace) {
    out += ",\"traced_host_cpu_s\":" + List(traced_cpu_s, Num) + ",\"layer\":" + Object(last_traced->layer);
  } else {
    out += ",\"layer\":" + Object(first->layer);
  }
  out += "}";

  if (trace && !args["--trace-out"].empty()) {
    // The span records of the last traced pass, still in the log.
    if (std::FILE* f = std::fopen(args["--trace-out"].c_str(), "w")) {
      const std::string json = SpanLog::ToJson(wl->first, seed);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args["--trace-out"].c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.c_str());
  return failures.empty() ? 0 : 1;
}
