#include "perfbench/cpp/harness.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "net/mbuf_pool.h"
#include "sim/metrics.h"
#include "sim/slab.h"
#include "sim/tracer.h"

namespace perfbench {

namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanLog::Scope::Scope(const char* name, std::uint64_t request) : name_(name), request_(request) {
  if (!enabled_) [[likely]] return;
  active_ = true;
  parent_ = current_;
  current_ = this;
  ++depth_;
  start_ = SteadyNs();
}

SpanLog::Scope::~Scope() {
  if (!active_) [[likely]] return;
  const std::int64_t end = SteadyNs();
  const std::int64_t total = end - start_;
  current_ = parent_;
  --depth_;
  if (parent_ != nullptr) parent_->child_ns_ += total;
  records_.push_back(
      {name_, request_, depth_, start_ - origin_ns_, total, std::max<std::int64_t>(0, total - child_ns_)});
}

void SpanLog::Reset(bool enabled) {
  enabled_ = enabled;
  current_ = nullptr;
  depth_ = 0;
  records_.clear();
  origin_ns_ = SteadyNs();
}

std::int64_t SpanLog::TotalNs(const std::string& name) {
  std::int64_t t = 0;
  for (const Record& r : records_) {
    if (name == r.name) t += r.total_ns;
  }
  return t;
}

std::int64_t SpanLog::SelfNs(const std::string& name) {
  std::int64_t t = 0;
  for (const Record& r : records_) {
    if (name == r.name) t += r.self_ns;
  }
  return t;
}

std::string SpanLog::ToJson(const std::string& workload, std::uint64_t seed) {
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Record& r : records_) {
    Totals& t = by_name[r.name];
    ++t.calls;
    t.total_ns += r.total_ns;
    t.self_ns += r.self_ns;
  }
  std::ostringstream out;
  out << "{\"schema\":\"perfbench-spans-v1\",\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"by_name\":{";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ",") << '"' << name << "\":{\"calls\":" << t.calls
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns << '}';
    first = false;
  }
  out << "},\"fields\":[\"name\",\"request\",\"depth\",\"start_ns\",\"total_ns\",\"self_ns\"],"
         "\"spans\":[";
  first = true;
  for (const Record& r : records_) {
    out << (first ? "" : ",") << "[\"" << r.name << "\"," << r.request << ',' << r.depth << ','
        << r.start_ns << ',' << r.total_ns << ',' << r.self_ns << ']';
    first = false;
  }
  out << "]}";
  return out.str();
}

void Context::Prepare(sim::Simulator& sim) const { sim.tracer().SetEnabled(traced_); }

void Context::CollectSim(sim::Simulator& sim) {
  const auto& m = sim.metrics();
  for (const auto& [name, c] : m.counters()) {
    if (name.rfind("sim.timer_", 0) == 0) AddLayer(name, static_cast<double>(c.value()));
  }
  if (auto it = m.gauges().find("sim.timer_pending_peak"); it != m.gauges().end()) {
    MaxLayer("sim.timer_pending_peak", static_cast<double>(it->second.value()));
  }
  // Slabs owned by the simulation die with it: read their peaks now. Peaks
  // are kept per slab name (max over simulations), so process-wide slabs
  // seen by several simulations count once.
  for (const sim::SlabStats& s : sim::SlabRegistry::Snapshot()) {
    MaxLayer("slab." + s.name + ".peak_bytes", static_cast<double>(s.peak_in_use * s.block_size));
  }
  for (const auto& [category, d] : sim.tracer().charge_by_category()) {
    if (category.front() == '(') continue;  // "(unattributed)"
    AddLayer("ledger." + category + "_ns", static_cast<double>(d.ns()));
  }
}

void Context::CollectHost(sim::Host& host) {
  const auto& m = host.metrics();
  for (const auto& [name, c] : m.counters()) {
    const auto v = static_cast<double>(c.value());
    if (name.rfind("nic", 0) == 0) {
      AddLayer("drivers." + name.substr(name.find('.') + 1), v);
    } else {
      AddLayer(name, v);
      if (name.rfind("proto.", 0) == 0 && name.ends_with(".malformed_drops")) {
        AddLayer("proto.malformed_drops", v);
      }
    }
  }
  if (auto it = m.gauges().find("mbuf.pool_peak"); it != m.gauges().end()) {
    MaxLayer("mbuf.pool_peak", static_cast<double>(it->second.value()));
  }
  AddLayer("sim.cpu_busy_ns", static_cast<double>(host.cpu().busy_total().ns()));
  AddLayer("sim.cpu_busy_ns." + host.name(), static_cast<double>(host.cpu().busy_total().ns()));
  if (host.mbuf_pool() != nullptr) {
    Gate(host.mbuf_pool()->in_use() == 0,
         "mbuf.pool_in_use reads 0 after the drain on host " + host.name());
  }
}

void Context::CollectHost(core::PlexusHost& host) {
  CollectHost(host.host());
  MaxLayer("spin.deferred_depth_peak", static_cast<double>(host.deferred_queue().peak_depth()));
}

void Context::CollectHost(os::SocketHost& host) { CollectHost(host.host()); }

void Context::RunFor(sim::Simulator& sim, sim::Duration d, sim::Duration slice) {
  const sim::TimePoint end = sim.Now() + d;
  while (sim.Now() < end) {
    SpanLog::Scope span("sim.run_for");
    sim.RunUntil(std::min(end, sim.Now() + slice));
  }
}

double Percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FillStream(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                std::span<std::byte> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t pos = offset + i;
    const std::uint64_t word = Mix(seed, stream, pos / 8);
    for (std::uint64_t b = pos % 8; b < 8 && i < out.size(); ++b, ++i) {
      out[i] = static_cast<std::byte>(word >> (8 * b));
    }
  }
}

}  // namespace perfbench
