// bulk_tcp: one long Plexus -> Plexus TCP transfer over Fore ATM.
//
// The Section 4.2 case at scale: per-byte work dominates (PIO, copies,
// checksums, GRO/GSO and the ACK clock); there is one connection and few
// timers. The sender cuts its stream into messages of seeded size and
// writes at seeded instants; latency runs from a message's first byte
// entering the transport to its last byte reaching the receiver. Every byte
// is checked against the seed's stream.
#include "perfbench/cpp/cells.h"

namespace perfbench {

void BulkTcp(Context& ctx) {
  constexpr std::uint64_t kStream = 40;
  const std::uint64_t bytes = (std::uint64_t{96} << 20) + Mix(ctx.seed(), kStream, 0) % 256 * 4096;
  const Messages messages{4 * 1024, 16 * 1024};
  const TransferResult r = Transfer(ctx, System::kPlexusInterrupt, drivers::DeviceProfile::ForeAtm155(),
                                    bytes, kStream, &messages);
  const auto delivered = r.message_ns.size();
  ctx.Virt("sim_goodput_mbps", r.mbps, r.bytes);
  ctx.Virt("sim_latency_p50_us", Percentile(r.message_ns, 0.50) / 1e3, delivered);
  ctx.Virt("sim_latency_p99_us", Percentile(r.message_ns, 0.99) / 1e3, delivered);
  // Receiver ACK frames per two full-sized segments of data: RFC 5681
  // asks for at least one, so a healthy delayed-ACK clock reads >= 1.
  ctx.Virt("proto.tcp.acks_per_2mss",
           static_cast<double>(r.receiver_tx_frames) /
               (static_cast<double>(r.bytes) / (2.0 * static_cast<double>(r.mss))),
           r.receiver_tx_frames);
}

}  // namespace perfbench
