// Figure 7: "TCP redirection latency using Plexus and DIGITAL UNIX. The
// DIGITAL UNIX implementation runs at user-level and is unable to respect
// end-to-end TCP semantics." Per packet, the user-level splice pays two
// full stack traversals and two user/kernel boundary copies; the Plexus
// forwarder rewrites addresses inside the protocol graph. Exits non-zero
// when the shape claim is VIOLATED.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  const auto costs = sim::CostModel::Default1996();

  std::printf("Figure 7: TCP redirection latency through a forwarding host (Ethernet)\n");

  const auto plexus = bench::PlexusForwarding(costs);
  const auto du = bench::DuForwarding(costs);

  bench::PrintHeader("connection establishment, client's view");
  bench::PrintRow("Plexus: SYN traverses forwarder (end-to-end)", plexus.connect_us, "us");
  bench::PrintRow("DU splice: accept is LOCAL to the forwarder", du.connect_us, "us");
  std::printf("  (the splice's accept proves nothing about the backend — the\n"
              "   end-to-end semantics violation the paper describes)\n");

  bench::PrintHeader("connect -> first backend response");
  bench::PrintRow("Plexus in-kernel forwarder", plexus.first_response_us, "us");
  bench::PrintRow("DIGITAL UNIX user-level splice", du.first_response_us, "us");

  bench::PrintHeader("8-byte request/response round trip through the forwarder");
  bench::PrintRow("Plexus in-kernel forwarder", plexus.request_rtt_us, "us");
  bench::PrintRow("DIGITAL UNIX user-level splice", du.request_rtt_us, "us");
  std::printf("\n  splice/plexus latency ratio: %.2fx (paper: substantially slower)\n",
              du.request_rtt_us / plexus.request_rtt_us);
  bench::ShapeVerdicts shapes;
  shapes.Check("Figure 7", "Plexus faster on steady-state RTT and first response",
               plexus.request_rtt_us < du.request_rtt_us &&
                   plexus.first_response_us < du.first_response_us);
  return shapes.ExitCode();
}
