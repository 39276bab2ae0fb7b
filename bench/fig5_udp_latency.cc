// Figure 5: "UDP Round trip network send/receive time for small (8 byte)
// packets when using different networking hardware with Plexus and DIGITAL
// UNIX", plus the faster-driver results quoted in Section 4.1 and the
// driver-to-driver minimum shown in the figure.
//
// Flags:
//   --json <path>   write every device x system cell (paper-expected vs
//                   measured, per-host metrics, CPU breakdown) as
//                   plexus-bench-v1 JSON
//   --trace <path>  write the Chrome trace of the traced Ethernet
//                   Plexus-interrupt run (load in chrome://tracing)
//
// Exits non-zero, naming the claim, when a shape claim is VIOLATED.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using drivers::DeviceProfile;
  const auto costs = sim::CostModel::Default1996();
  const auto fast_costs = sim::CostModel::FastDriver1996();
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  const std::string trace_path = bench::ArgAfter(argc, argv, "--trace");
  bench::JsonReporter reporter;
  bench::ShapeVerdicts shapes;

  std::printf("Figure 5: UDP round-trip latency, 8-byte packets (microseconds)\n");
  std::printf("Paper: Plexus(interrupt) < 600us Ethernet, ~350us ATM, ~300us T3;\n");
  std::printf("DIGITAL UNIX substantially slower; thread mode above interrupt mode.\n");

  auto record = [&](const std::string& device, const std::string& system, double measured,
                    const char* paper, bench::RunObservability* obs) {
    bench::BenchRecord r;
    r.experiment = "fig5_udp_rtt";
    r.device = device;
    r.system = system;
    r.metric = "rtt";
    r.unit = "us";
    r.measured = measured;
    r.paper_expected = paper;
    if (obs != nullptr) {
      r.metrics_json = obs->metrics_json;
      r.charge_breakdown_json = obs->charge_breakdown_json;
    }
    reporter.Add(std::move(r));
  };

  struct Device {
    DeviceProfile profile;
    const char* paper_plexus;
  };
  const Device devices[] = {
      {DeviceProfile::Ethernet10(), "<600"},
      {DeviceProfile::ForeAtm155(), "~350"},
      {DeviceProfile::DecT3(), "~300"},
  };

  for (const auto& dev : devices) {
    bench::PrintHeader(dev.profile.name);
    // The Plexus interrupt run is traced: same virtual-time result, plus the
    // per-layer CPU breakdown the paper's Section 4 discussion argues from.
    bench::RunObservability plexus_obs;
    plexus_obs.enable_tracing = true;
    bench::RunObservability thr_obs, du_obs;
    const double plexus_int = bench::PlexusUdpRttUs(dev.profile, costs,
                                                    core::HandlerMode::kInterrupt,
                                                    /*payload=*/8, /*pings=*/16, &plexus_obs);
    const double plexus_thr = bench::PlexusUdpRttUs(dev.profile, costs,
                                                    core::HandlerMode::kThread,
                                                    /*payload=*/8, /*pings=*/16, &thr_obs);
    const double du = bench::OsUdpRttUs(dev.profile, costs, /*payload=*/8, /*pings=*/16, &du_obs);
    const double driver = bench::DriverUdpRttUs(dev.profile, costs);
    bench::PrintRow("Plexus (interrupt handler)", plexus_int, "us", dev.paper_plexus);
    bench::PrintRow("Plexus (thread per event raise)", plexus_thr, "us", "> interrupt");
    bench::PrintRow("DIGITAL UNIX (user-level sockets)", du, "us", "substantially slower");
    bench::PrintRow("driver-to-driver minimum", driver, "us", "figure baseline");
    shapes.Check("Figure 5 " + dev.profile.name, "driver <= plexus-int < plexus-thread < DU",
                 driver <= plexus_int && plexus_int < plexus_thr && plexus_thr < du);
    record(dev.profile.name, "plexus-interrupt", plexus_int, dev.paper_plexus, &plexus_obs);
    record(dev.profile.name, "plexus-thread", plexus_thr, "> interrupt", &thr_obs);
    record(dev.profile.name, "digital-unix", du, "substantially slower", &du_obs);
    record(dev.profile.name, "driver", driver, "figure baseline", nullptr);
    if (!trace_path.empty() && &dev == &devices[0]) {
      // One representative Chrome trace: NIC -> dispatch -> guard -> handler
      // nesting over the Ethernet ping-pong.
      std::FILE* f = std::fopen(trace_path.c_str(), "w");
      if (f != nullptr) {
        std::fputs(plexus_obs.chrome_trace_json.c_str(), f);
        std::fclose(f);
        std::printf("  wrote Chrome trace: %s\n", trace_path.c_str());
      }
    }
  }

  bench::PrintHeader("Section 4.1: faster device driver (SPIN)");
  const double fast_eth = bench::PlexusUdpRttUs(DeviceProfile::Ethernet10FastDriver(),
                                                fast_costs, core::HandlerMode::kInterrupt);
  const double fast_atm = bench::PlexusUdpRttUs(DeviceProfile::ForeAtm155FastDriver(),
                                                fast_costs, core::HandlerMode::kInterrupt);
  bench::PrintRow("Plexus fast driver, Ethernet", fast_eth, "us", "337");
  bench::PrintRow("Plexus fast driver, ATM", fast_atm, "us", "241");
  record(DeviceProfile::Ethernet10FastDriver().name, "plexus-interrupt-fast", fast_eth, "337",
         nullptr);
  record(DeviceProfile::ForeAtm155FastDriver().name, "plexus-interrupt-fast", fast_atm, "241",
         nullptr);

  if (!json_path.empty()) {
    if (!reporter.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu records: %s\n", reporter.size(), json_path.c_str());
  }
  return shapes.ExitCode();
}
