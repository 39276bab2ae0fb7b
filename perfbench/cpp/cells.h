// Two-host measurement cells shared by bulk_tcp and paper_cells: the Fig. 5
// UDP ping-pong and the Section 4.2 TCP transfer, for Plexus (interrupt or
// thread mode), the DIGITAL UNIX baseline and raw driver-to-driver frames.
//
// Every cell builds its own simulation from the seed, runs it to
// quiescence, checks its payloads byte for byte, and folds its instruments
// into the pass. Media mirror the testbed: Ethernet is a shared segment,
// ATM and T3 are point-to-point.
#ifndef PERFBENCH_CPP_CELLS_H_
#define PERFBENCH_CPP_CELLS_H_

#include <cstdint>
#include <vector>

#include "drivers/device_profile.h"
#include "perfbench/cpp/harness.h"

namespace perfbench {

enum class System { kPlexusInterrupt, kPlexusThread, kDigitalUnix, kDriver };
const char* SystemName(System s);

struct PingResult {
  std::vector<std::int64_t> rtt_ns;  // one per ping, the ARP-paying first one excluded
  double mean_us = 0;
};

// Round trips of `sizes.size()` UDP payloads (driver cells: raw frames of
// the same length plus headers). The echo handler copies the payload back;
// the client checks it byte for byte.
PingResult Ping(Context& ctx, System system, const drivers::DeviceProfile& profile,
                const std::vector<std::size_t>& sizes, std::uint64_t stream);

struct TransferResult {
  double mbps = 0;                       // first to last delivered byte
  std::uint64_t bytes = 0;               // delivered, all verified
  std::uint64_t receiver_tx_frames = 0;  // ACK clock: frames the receiver sent
  std::size_t mss = 0;
  std::vector<std::int64_t> message_ns;  // per message: first byte accepted -> last delivered
};

// The sender as an application with its own rhythm: its stream is cut into
// messages of seeded size in [min_bytes, max_bytes], each message's latency
// is recorded, and the writer wakes at seeded intervals averaging the
// Section 4.2 sender's fixed 5 ms.
struct Messages {
  std::size_t min_bytes = 0;
  std::size_t max_bytes = 0;
};

// One-way TCP transfer of `bytes` seeded bytes (Plexus or DIGITAL UNIX), or
// a driver-to-driver blast of MTU frames (no TCP; bytes are not verified).
TransferResult Transfer(Context& ctx, System system, const drivers::DeviceProfile& profile,
                        std::uint64_t bytes, std::uint64_t stream,
                        const Messages* messages = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_CELLS_H_
