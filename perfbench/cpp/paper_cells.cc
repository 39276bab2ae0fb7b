// paper_cells: the Fig. 5 ping-pong and Section 4.2 transfer cells.
//
// Plexus interrupt mode, Plexus thread mode, DIGITAL UNIX and
// driver-to-driver, on all three NICs, plus the paper's shape claims
// evaluated on them. The only workload that exercises the DIGITAL UNIX
// baseline and the EPHEMERAL interrupt-level path. A violated claim is a
// finding, not a failure: it is counted in shape_violations.
#include <string>

#include "perfbench/cpp/cells.h"

namespace perfbench {

namespace {

// Fig. 5 and Section 4.2 use fixed inputs: 16 pings of 8 bytes, 4 MiB.
constexpr int kPings = 16;
constexpr std::size_t kPingBytes = 8;
constexpr std::uint64_t kTransferBytes = 4 << 20;
// The latency distribution: a seeded train of pings on the Ethernet Plexus
// interrupt-mode cell, long enough to leave ten samples past p99. Sizes run
// up to the largest unfragmented UDP payload: kTrainPings / kTrainStrata
// sizes drawn from each of kTrainStrata equal strata, sent in seeded order,
// so the seed moves the percentiles only slightly.
constexpr std::size_t kTrainPings = 1200;
constexpr std::size_t kTrainStrata = 300;
constexpr std::size_t kTrainMaxBytes = 1472;

}  // namespace

void PaperCells(Context& ctx) {
  using drivers::DeviceProfile;
  const DeviceProfile devices[] = {DeviceProfile::Ethernet10(), DeviceProfile::ForeAtm155(),
                                   DeviceProfile::DecT3()};
  const std::vector<std::size_t> fig5(kPings, kPingBytes);
  int claims = 0;
  int violations = 0;
  auto claim = [&](bool holds, const std::string& what) {
    ++claims;
    if (!holds) ++violations;
    ctx.Virt("shape." + what, holds ? 1 : 0);
  };

  std::uint64_t stream = 100;
  for (const DeviceProfile& dev : devices) {
    double rtt[4] = {};
    for (const System s : {System::kPlexusInterrupt, System::kPlexusThread, System::kDigitalUnix,
                           System::kDriver}) {
      const PingResult p = Ping(ctx, s, dev, fig5, ++stream);
      rtt[static_cast<int>(s)] = p.mean_us;
      ctx.Virt("cell." + dev.name + "." + SystemName(s) + ".rtt_us", p.mean_us, p.rtt_ns.size());
    }
    const double drv = rtt[static_cast<int>(System::kDriver)];
    const double pint = rtt[static_cast<int>(System::kPlexusInterrupt)];
    const double pthr = rtt[static_cast<int>(System::kPlexusThread)];
    const double du = rtt[static_cast<int>(System::kDigitalUnix)];
    claim(drv <= pint && pint < pthr && pthr < du, "fig5." + dev.name);

    double mbps[4] = {};
    for (const System s : {System::kPlexusInterrupt, System::kDigitalUnix, System::kDriver}) {
      const TransferResult t = Transfer(ctx, s, dev, kTransferBytes, ++stream);
      mbps[static_cast<int>(s)] = t.mbps;
      ctx.Virt("cell." + dev.name + "." + SystemName(s) + ".tcp_mbps", t.mbps, t.bytes);
      if (s == System::kPlexusInterrupt && dev.name == DeviceProfile::ForeAtm155().name) {
        ctx.Virt("sim_goodput_mbps", t.mbps, t.bytes);
        ctx.Virt("proto.tcp.acks_per_2mss",
                 static_cast<double>(t.receiver_tx_frames) /
                     (static_cast<double>(t.bytes) / (2.0 * static_cast<double>(t.mss))),
                 t.receiver_tx_frames);
      }
    }
    const double tp = mbps[static_cast<int>(System::kPlexusInterrupt)];
    const double tdu = mbps[static_cast<int>(System::kDigitalUnix)];
    const double tdrv = mbps[static_cast<int>(System::kDriver)];
    if (dev.name == DeviceProfile::Ethernet10().name) {
      claim(tp > 7.0 && tdu > 7.0 && tp / tdu < 1.2 && tdu / tp < 1.2, "tab1." + dev.name);
    } else if (dev.name == DeviceProfile::ForeAtm155().name) {
      claim(tdu < tp && tp < tdrv, "tab1." + dev.name);
    }
  }
  ctx.Virt("shape_claims", claims);
  ctx.Virt("shape_violations", violations);

  // The seeded train for the latency distribution.
  std::vector<std::size_t> sizes(kTrainPings);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t offset = Mix(ctx.seed(), 99, i) % kTrainMaxBytes;
    sizes[i] = 1 + (i % kTrainStrata * kTrainMaxBytes + offset) / kTrainStrata;
  }
  for (std::size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[Mix(ctx.seed(), 98, i) % (i + 1)]);
  }
  const PingResult train = Ping(ctx, System::kPlexusInterrupt, devices[0], sizes, ++stream);
  ctx.Virt("sim_latency_p50_us", Percentile(train.rtt_ns, 0.50) / 1e3, train.rtt_ns.size());
  ctx.Virt("sim_latency_p99_us", Percentile(train.rtt_ns, 0.99) / 1e3, train.rtt_ns.size());
}

}  // namespace perfbench
