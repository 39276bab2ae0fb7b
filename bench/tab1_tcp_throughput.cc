// Section 4.2 (throughput): "for Ethernet, we saw 8.9 Mb/sec, and for the
// Fore ATM card, we saw 27.9 Mb/sec with DIGITAL UNIX and 33 Mb/sec with
// Plexus", against a driver-to-driver ceiling of ~53 Mb/s on ATM ("we have
// been unable to achieve greater than 53Mb/sec when transferring data
// reliably between two device drivers"). The paper could not measure T3
// TCP (DMA bug); we report it as an extension.
//
// Flags:
//   --json <path>  write every device x system cell (paper-expected vs
//                  measured, per-host metrics incl. tcp.* retransmit and
//                  cwnd histograms) as plexus-bench-v1 JSON
//
// Exits non-zero, naming the claim, when a shape claim is VIOLATED.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using drivers::DeviceProfile;
  const auto costs = sim::CostModel::Default1996();
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  bench::JsonReporter reporter;
  bench::ShapeVerdicts shapes;

  auto record = [&](const std::string& device, const std::string& system, double measured,
                    const char* paper, bench::RunObservability* obs) {
    bench::BenchRecord r;
    r.experiment = "tab1_tcp_throughput";
    r.device = device;
    r.system = system;
    r.metric = "throughput";
    r.unit = "Mb/s";
    r.measured = measured;
    r.paper_expected = paper;
    if (obs != nullptr) {
      r.metrics_json = obs->metrics_json;
      r.charge_breakdown_json = obs->charge_breakdown_json;
    }
    reporter.Add(std::move(r));
  };

  std::printf("Section 4.2: TCP throughput (Mb/s)\n");

  {
    bench::PrintHeader("Ethernet (10 Mb/s)");
    bench::RunObservability pobs, dobs;
    const double plexus =
        bench::PlexusTcpThroughputMbps(DeviceProfile::Ethernet10(), costs,
                                       /*transfer_bytes=*/4 * 1024 * 1024, &pobs);
    const double du = bench::OsTcpThroughputMbps(DeviceProfile::Ethernet10(), costs,
                                                 /*transfer_bytes=*/4 * 1024 * 1024, &dobs);
    const double drv = bench::DriverThroughputMbps(DeviceProfile::Ethernet10(), costs);
    bench::PrintRow("Plexus", plexus, "Mb/s", "8.9");
    bench::PrintRow("DIGITAL UNIX", du, "Mb/s", "8.9");
    bench::PrintRow("driver-to-driver", drv, "Mb/s", "(wire-limited)");
    shapes.Check("Section 4.2 Ethernet", "both systems wire-limited and nearly identical",
                 plexus > 7.0 && du > 7.0 && plexus / du < 1.2 && du / plexus < 1.2);
    record(DeviceProfile::Ethernet10().name, "plexus", plexus, "8.9", &pobs);
    record(DeviceProfile::Ethernet10().name, "digital-unix", du, "8.9", &dobs);
    record(DeviceProfile::Ethernet10().name, "driver", drv, "(wire-limited)", nullptr);
  }
  {
    bench::PrintHeader("Fore ATM (155 Mb/s line, PIO-limited)");
    bench::RunObservability pobs, dobs;
    const double drv = bench::DriverThroughputMbps(DeviceProfile::ForeAtm155(), costs);
    const double plexus =
        bench::PlexusTcpThroughputMbps(DeviceProfile::ForeAtm155(), costs,
                                       /*transfer_bytes=*/4 * 1024 * 1024, &pobs);
    const double du = bench::OsTcpThroughputMbps(DeviceProfile::ForeAtm155(), costs,
                                                 /*transfer_bytes=*/4 * 1024 * 1024, &dobs);
    bench::PrintRow("driver-to-driver ceiling", drv, "Mb/s", "53");
    bench::PrintRow("Plexus", plexus, "Mb/s", "33");
    bench::PrintRow("DIGITAL UNIX", du, "Mb/s", "27.9");
    shapes.Check("Section 4.2 Fore ATM", "DU < Plexus < driver ceiling",
                 du < plexus && plexus < drv);
    record(DeviceProfile::ForeAtm155().name, "driver", drv, "53", nullptr);
    record(DeviceProfile::ForeAtm155().name, "plexus", plexus, "33", &pobs);
    record(DeviceProfile::ForeAtm155().name, "digital-unix", du, "27.9", &dobs);
  }
  {
    bench::PrintHeader("DEC T3 (45 Mb/s, DMA) — not measured in the paper");
    bench::RunObservability pobs, dobs;
    const double plexus =
        bench::PlexusTcpThroughputMbps(DeviceProfile::DecT3(), costs,
                                       /*transfer_bytes=*/4 * 1024 * 1024, &pobs);
    const double du = bench::OsTcpThroughputMbps(DeviceProfile::DecT3(), costs,
                                                 /*transfer_bytes=*/4 * 1024 * 1024, &dobs);
    const double drv = bench::DriverThroughputMbps(DeviceProfile::DecT3(), costs);
    bench::PrintRow("Plexus", plexus, "Mb/s", "n/a (DMA bug)");
    bench::PrintRow("DIGITAL UNIX", du, "Mb/s", "n/a");
    bench::PrintRow("driver-to-driver", drv, "Mb/s", "~45 wire");
    record(DeviceProfile::DecT3().name, "plexus", plexus, "n/a (DMA bug)", &pobs);
    record(DeviceProfile::DecT3().name, "digital-unix", du, "n/a", &dobs);
    record(DeviceProfile::DecT3().name, "driver", drv, "~45 wire", nullptr);
  }

  if (!json_path.empty()) {
    if (!reporter.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu records: %s\n", reporter.size(), json_path.c_str());
  }
  return shapes.ExitCode();
}
