// Figure 6: "Utilization of the server's CPU as a function of the number of
// client video streams" over the T3 network. "At 15 streams, both SPIN and
// DIGITAL UNIX saturate the network, but SPIN consumes only half as much of
// the processor." Exits non-zero when the shape claim is VIOLATED.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  const auto costs = sim::CostModel::Default1996();

  std::printf("Figure 6: video server CPU utilization vs streams (T3, 30fps, 12.5KB frames)\n");
  std::printf("%8s %14s %14s %10s %12s\n", "streams", "SPIN/Plexus %", "DIGITAL UNIX %", "ratio",
              "net-satur.");

  double plexus_at_15 = 0, du_at_15 = 0;
  for (int streams : {1, 2, 4, 6, 8, 10, 12, 15, 20, 25, 30}) {
    const auto p = bench::VideoServerCpu(/*plexus=*/true, streams, costs);
    const auto d = bench::VideoServerCpu(/*plexus=*/false, streams, costs);
    std::printf("%8d %14.1f %14.1f %10.2f %12s\n", streams, p.utilization * 100.0,
                d.utilization * 100.0, d.utilization / p.utilization,
                p.net_saturated ? "yes" : "no");
    if (streams == 15) {
      plexus_at_15 = p.utilization;
      du_at_15 = d.utilization;
    }
  }
  std::printf("\nAt 15 streams (network saturation): SPIN %.1f%%, DU %.1f%% -> DU/SPIN = %.2fx "
              "(paper: ~2x)\n",
              plexus_at_15 * 100, du_at_15 * 100, du_at_15 / plexus_at_15);
  bench::ShapeVerdicts shapes;
  shapes.Check("Figure 6", "DU uses ~2x the CPU of SPIN at saturation",
               du_at_15 > plexus_at_15 * 1.6);
  return shapes.ExitCode();
}
