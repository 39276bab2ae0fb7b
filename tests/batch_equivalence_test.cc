// Batching-vs-per-packet equivalence property harness (label: slow).
//
// The batched packet path (rx bursts, RaiseBatch, GRO, GSO) buys its
// virtual-time win by amortizing charges — it must NOT buy it by changing
// what is delivered. Two layers of proof:
//
// Part A (spin): a mirrored pair of dispatcher-backed keyed events runs a
// randomized script (keyed / opaque-guard / unconditional handlers,
// mid-raise installs and uninstalls, throwing handlers under isolation).
// One side raises a batch item-by-item, the other hands the same batch to
// RaiseBatch. After every burst the invocation logs, return counts, and
// per-handler stats must match exactly; the dispatcher totals must agree
// on everything except demux probes (the batch side's probe cache may only
// ever save lookups, never add them).
//
// Part B (stack): seeded single-connection TCP transfers through two full
// PlexusHosts over a faulty wire (loss, duplication, reordering,
// truncation), once with PLEXUS_BATCH off and once per batched variant
// (GRO on / GRO off, interrupt and thread handler modes). Whatever the
// fault schedule does to the wire, the server-side byte stream must be
// exactly the payload in every mode, nothing may be quarantined, and after
// the drain every mbuf — including in-flight burst containers and parked
// GRO chains — must be back on its slab. Off-mode runs are additionally
// re-run and must be bit-deterministic (same virtual end time, same raise
// totals): the gate's identity guarantee rests on that determinism.
//
// Part C (departures): a burst of UDP echo requests reaches an
// interrupt-mode Plexus server while its CPU is busy, so one rx interrupt
// drains them all. Each echo must reach the wire once the CPU has issued
// it, not when the whole burst's task retires; payloads stay byte-exact;
// the per-packet engine keeps its departure times; a power cut drops the
// pending departures; and a handler quarantined inside the burst leaves
// no batch scope open behind it.
//
// Default 1000 seeds; PLEXUS_BATCH_SEEDS overrides for quick local runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "sim/batch.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"
#include "sim/slab.h"
#include "spin/dispatcher.h"
#include "spin/event.h"

namespace {

struct ScopedBatchMode {
  explicit ScopedBatchMode(bool on) : prev_(sim::BatchConfig::enabled()) {
    sim::BatchConfig::SetEnabled(on);
  }
  ~ScopedBatchMode() { sim::BatchConfig::SetEnabled(prev_); }
  bool prev_;
};

int SeedCount() {
  if (const char* env = std::getenv("PLEXUS_BATCH_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

// --- Part A: spin-level Raise vs RaiseBatch mirror ------------------------------

using Ev = spin::Event<int>;
constexpr int kKeySpace = 16;  // raised values in [-2, kKeySpace): -2/-1 demux to nullopt

struct MirrorSide {
  MirrorSide(sim::Simulator& sim, const char* name)
      : host(sim, name, sim::CostModel::Default1996()), d(&host), ev(name, &d) {
    ev.SetDemuxKey("k", [](int v) {
      return v >= 0 ? std::optional<std::uint64_t>(static_cast<std::uint64_t>(v))
                    : std::nullopt;
    });
  }
  sim::Host host;
  spin::Dispatcher d;
  Ev ev;
  std::vector<spin::HandlerId> ids;
  std::vector<int> log;
  int dynamic_seq = 0;
};

enum class Kind { kKeyed, kLambda, kUncond };

struct Spec {
  Kind kind = Kind::kUncond;
  int key = 0;
  int chaos = 0;  // 0 none, 1 uninstall target mid-raise, 2 install keyed
                  // handler mid-raise (under a never-raised key: mid-burst
                  // installs landing on a raised key are a documented
                  // probe-cache divergence), 3 throw (isolated)
  int target = 0;
};

void InstallLogical(MirrorSide& s, int logical, const Spec& spec) {
  MirrorSide* side = &s;
  auto body = [side, logical, spec](int) {
    side->log.push_back(logical);
    switch (spec.chaos) {
      case 1:
        if (spec.target < static_cast<int>(side->ids.size())) {
          side->ev.Uninstall(side->ids[static_cast<std::size_t>(spec.target)]);
        }
        break;
      case 2: {
        const int label = 1000 + side->dynamic_seq++;
        auto dyn = [side, label](int) { side->log.push_back(label); };
        // kKeySpace + label is never raised: the install exercises the
        // append-only bucket under an active burst without tripping the
        // documented mid-burst key-churn divergence.
        (void)side->ev.InstallKeyed(
            dyn, static_cast<std::uint64_t>(kKeySpace + label));
        break;
      }
      case 3:
        throw std::runtime_error("chaos handler fault");
      default:
        break;
    }
  };
  spin::HandlerOptions opts;
  opts.name = "h" + std::to_string(logical);
  if (spec.chaos == 3) {
    opts.fault.isolate = true;
    opts.fault.max_strikes = 3;
  }
  spin::Result<spin::HandlerId> r = spin::Errorf("unset");
  switch (spec.kind) {
    case Kind::kKeyed:
      r = s.ev.InstallKeyed(body, static_cast<std::uint64_t>(spec.key), nullptr, opts);
      break;
    case Kind::kLambda: {
      const int key = spec.key;
      r = s.ev.Install(body, [key](int v) { return v == key || v == key + 1; }, opts);
      break;
    }
    case Kind::kUncond:
      r = s.ev.Install(body, nullptr, opts);
      break;
  }
  ASSERT_TRUE(r.ok()) << r.error().message;
  s.ids.push_back(r.value());
}

void RunMirrorSeed(std::uint64_t seed) {
  ScopedBatchMode batched(true);
  std::mt19937 rng(static_cast<unsigned>(seed * 2654435761u + 1));
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> value_dist(-2, kKeySpace - 1);
  const int kBatchSizes[] = {1, 4, 16, 64};

  sim::Simulator sim;
  MirrorSide ref(sim, "ref");
  MirrorSide bat(sim, "bat");
  std::vector<Spec> specs;

  auto install_random = [&] {
    Spec spec;
    const int k = percent(rng);
    spec.kind = k < 50 ? Kind::kKeyed : (k < 80 ? Kind::kLambda : Kind::kUncond);
    spec.key = std::uniform_int_distribution<int>(0, kKeySpace - 1)(rng);
    const int c = percent(rng);
    spec.chaos = c < 70 ? 0 : (c < 80 ? 1 : (c < 90 ? 2 : 3));
    spec.target = std::uniform_int_distribution<int>(
        0, std::max(0, static_cast<int>(specs.size()) - 1))(rng);
    const int logical = static_cast<int>(specs.size());
    specs.push_back(spec);
    InstallLogical(ref, logical, spec);
    InstallLogical(bat, logical, spec);
  };

  for (int i = 0; i < 10; ++i) install_random();

  for (int round = 0; round < 60; ++round) {
    const int action = percent(rng);
    if (action < 10) {
      install_random();
    } else if (action < 18 && !specs.empty()) {
      const int logical = std::uniform_int_distribution<int>(
          0, static_cast<int>(specs.size()) - 1)(rng);
      const bool a = ref.ev.Uninstall(ref.ids[static_cast<std::size_t>(logical)]);
      const bool b = bat.ev.Uninstall(bat.ids[static_cast<std::size_t>(logical)]);
      ASSERT_EQ(a, b) << "seed " << seed << " round " << round;
    } else {
      const int n = kBatchSizes[static_cast<std::size_t>(percent(rng)) % 4];
      std::vector<int> burst;
      burst.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) burst.push_back(value_dist(rng));
      std::size_t a = 0;
      for (int v : burst) a += ref.ev.Raise(v);
      const std::size_t b =
          bat.ev.RaiseBatch(burst, [](int& v) { return std::forward_as_tuple(v); });
      ASSERT_EQ(a, b) << "seed " << seed << " round " << round;
      ASSERT_EQ(ref.log, bat.log) << "seed " << seed << " round " << round;
    }
  }

  ASSERT_EQ(ref.log, bat.log);
  EXPECT_EQ(ref.ev.handler_count(), bat.ev.handler_count());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto sa = ref.ev.stats(ref.ids[i]);
    const auto sb = bat.ev.stats(bat.ids[i]);
    EXPECT_EQ(sa.invocations, sb.invocations) << "seed " << seed << " h" << i;
    EXPECT_EQ(sa.guard_rejections, sb.guard_rejections) << "seed " << seed << " h" << i;
    EXPECT_EQ(sa.faults, sb.faults) << "seed " << seed << " h" << i;
    EXPECT_EQ(sa.quarantined, sb.quarantined) << "seed " << seed << " h" << i;
    EXPECT_EQ(sa.terminations, sb.terminations) << "seed " << seed << " h" << i;
  }
  // Dispatcher totals: identical work, fewer probes.
  const auto da = ref.d.stats();
  const auto db = bat.d.stats();
  EXPECT_EQ(da.raises, db.raises);
  EXPECT_EQ(da.handler_invocations, db.handler_invocations);
  EXPECT_EQ(da.guard_evals, db.guard_evals);
  EXPECT_EQ(da.guard_rejections, db.guard_rejections);
  EXPECT_LE(db.demux_lookups, da.demux_lookups);
  EXPECT_LE(db.batch_packets, db.raises);
  EXPECT_GT(db.batch_raises, 0u);  // the script really hit the batched core
}

TEST(BatchEquivalence, RaiseBatchMirrorsPerItemRaise) {
  const int seeds = std::min(SeedCount(), 250);
  for (int s = 1; s <= seeds; ++s) {
    RunMirrorSeed(static_cast<std::uint64_t>(s));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// RaiseBatch with batching disabled must be a plain per-item loop: the
// batch counters stay untouched.
TEST(BatchEquivalence, RaiseBatchDegradesToPerItemWhenOff) {
  ScopedBatchMode off(false);
  sim::Simulator sim;
  MirrorSide side(sim, "off");
  int calls = 0;
  ASSERT_TRUE(side.ev.InstallKeyed([&](int) { ++calls; }, 3).ok());
  std::vector<int> burst = {3, 3, 5, 3};
  EXPECT_EQ(side.ev.RaiseBatch(burst, [](int& v) { return std::forward_as_tuple(v); }),
            3u);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(side.d.stats().batch_raises, 0u);
  EXPECT_EQ(side.d.stats().batch_packets, 0u);
  EXPECT_EQ(side.d.stats().batch_amortized, 0u);
}

// --- Part B: full-stack transfers, off vs batched -------------------------------

std::vector<std::byte> PayloadFor(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const std::size_t len = 1024 + static_cast<std::size_t>(rng() % (24 * 1024));
  std::vector<std::byte> p(len);
  for (std::size_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::byte>((rng() >> 17) & 0xff);
  }
  return p;
}

drivers::Faults FaultsFor(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xc2b2ae3d27d4eb4full + 3);
  auto prob = [&](double max) {
    return (rng() % 4 == 0) ? 0.0 : max * static_cast<double>(rng() % 1000) / 1000.0;
  };
  drivers::Faults f;
  f.drop_probability = prob(0.02);
  f.duplicate_probability = prob(0.02);
  f.reorder_probability = prob(0.03);
  f.truncate_probability = prob(0.01);
  return f;
}

struct StackOutcome {
  bool closed = false;
  std::vector<std::byte> received;
  std::uint64_t quarantines = 0;
  std::uint64_t slab_mbuf_in_use = ~0ull;
  std::int64_t end_ns = 0;
  std::uint64_t raises = 0;
  std::uint64_t gro_merged = 0;
  std::uint64_t batch_raises = 0;
};

StackOutcome RunTransfer(std::uint64_t seed, bool batched, bool gro,
                         core::HandlerMode mode) {
  ScopedBatchMode m(batched);
  StackOutcome out;
  {
    sim::Simulator sim;
    drivers::EthernetSegment segment(sim, /*fault_seed=*/seed);
    segment.set_faults(FaultsFor(seed));

    const auto costs = sim::CostModel::Default1996();
    const auto profile = drivers::DeviceProfile::Ethernet10();
    core::PlexusHost server(sim, "server", costs, profile,
                            {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24},
                            mode, 1);
    core::PlexusHost client(sim, "client", costs, profile,
                            {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24},
                            mode, 2);
    server.AttachTo(segment);
    client.AttachTo(segment);
    server.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    client.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    server.arp().AddStatic(net::Ipv4Address(10, 0, 0, 2), net::MacAddress::FromId(2));
    client.arp().AddStatic(net::Ipv4Address(10, 0, 0, 1), net::MacAddress::FromId(1));
    server.tcp().set_gro_enabled(gro);
    client.tcp().set_gro_enabled(gro);

    // Burst former: a two-host 10 Mbps wire delivers one frame per interrupt
    // and the rx ring never holds two frames, so batching would never engage
    // and the sweep's non-vacuity gate would starve. Brief periodic rx
    // stalls — the identical schedule in both modes — park in-flight frames
    // in the ring; the resume drains them in one go: a burst when batching
    // is on, a run of single-frame interrupts when it is off.
    for (int p = 0; p < 600; ++p) {
      const sim::Duration at = sim::Duration::Millis(5 + 25 * p);
      sim.Schedule(at, [&server, &client] {
        server.nic().SetStalled(true);
        client.nic().SetStalled(true);
      });
      sim.Schedule(at + sim::Duration::Millis(6), [&server, &client] {
        server.nic().SetStalled(false);
        client.nic().SetStalled(false);
      });
    }

    std::shared_ptr<core::PlexusTcpEndpoint> server_ep;
    EXPECT_TRUE(server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      server_ep = std::move(ep);
      server_ep->SetOnData([&](std::span<const std::byte> data) {
        out.received.insert(out.received.end(), data.begin(), data.end());
      });
      server_ep->SetOnClose([&] {
        out.closed = true;
        server_ep->CloseStream();
      });
    }));

    const auto payload = PayloadFor(seed);
    std::shared_ptr<core::PlexusTcpEndpoint> client_ep;
    client.Run([&] {
      client_ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
      client_ep->SetOnEstablished([&] {
        client_ep->Write(payload);
        client_ep->CloseStream();
      });
    });

    for (int rounds = 0; rounds < 120 && !out.closed; ++rounds) {
      sim.RunFor(sim::Duration::Seconds(1));
    }
    sim.RunFor(sim::Duration::Seconds(35));  // drain 2MSL + stragglers

    out.quarantines = server.dispatcher().stats().quarantines +
                      client.dispatcher().stats().quarantines;
    out.end_ns = sim.Now().ns();
    out.raises = server.dispatcher().stats().raises + client.dispatcher().stats().raises;
    out.gro_merged = server.tcp().gro().stats().merged + client.tcp().gro().stats().merged;
    out.batch_raises =
        server.dispatcher().stats().batch_raises + client.dispatcher().stats().batch_raises;
  }
  // Hosts and sim are gone: anything still "in use" on the mbuf slabs —
  // packet buffers, burst slot blocks, parked GRO chains — is a leak.
  out.slab_mbuf_in_use = sim::SlabRegistry::InUse("mbuf");
  return out;
}

void RunStackSeed(std::uint64_t seed, std::uint64_t* gro_merges,
                  std::uint64_t* batch_raises) {
  const auto payload = PayloadFor(seed);
  const core::HandlerMode mode =
      seed % 2 == 0 ? core::HandlerMode::kInterrupt : core::HandlerMode::kThread;
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (mode == core::HandlerMode::kThread ? " thread" : " interrupt"));

  const StackOutcome off = RunTransfer(seed, /*batched=*/false, /*gro=*/true, mode);
  ASSERT_TRUE(off.closed) << "per-packet transfer did not finish";
  ASSERT_EQ(off.received, payload);
  EXPECT_EQ(off.quarantines, 0u);
  EXPECT_EQ(off.slab_mbuf_in_use, 0u);
  EXPECT_EQ(off.gro_merged, 0u);      // GRO must not engage when off
  EXPECT_EQ(off.batch_raises, 0u);

  // Off-mode determinism underwrites the byte-identity gates: a re-run is
  // bit-equal in virtual time and dispatch totals.
  if (seed % 16 == 1) {
    const StackOutcome off2 = RunTransfer(seed, /*batched=*/false, /*gro=*/true, mode);
    EXPECT_EQ(off2.end_ns, off.end_ns);
    EXPECT_EQ(off2.raises, off.raises);
    EXPECT_EQ(off2.received, off.received);
  }

  for (const bool gro : {true, false}) {
    const StackOutcome on = RunTransfer(seed, /*batched=*/true, gro, mode);
    SCOPED_TRACE(gro ? "gro on" : "gro off");
    ASSERT_TRUE(on.closed) << "batched transfer did not finish";
    ASSERT_EQ(on.received, payload);  // byte-exact, whatever the wire did
    EXPECT_EQ(on.quarantines, 0u);
    EXPECT_EQ(on.slab_mbuf_in_use, 0u);
    if (!gro) EXPECT_EQ(on.gro_merged, 0u);
    if (gro) *gro_merges += on.gro_merged;
    *batch_raises += on.batch_raises;
  }
}

TEST(BatchEquivalence, SeededTransfersDeliverIdenticalBytesInEveryMode) {
  const int seeds = SeedCount();
  std::uint64_t gro_merges = 0, batch_raises = 0;
  for (int s = 1; s <= seeds; ++s) {
    RunStackSeed(static_cast<std::uint64_t>(s), &gro_merges, &batch_raises);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Not vacuous: across the sweep the batched engine really batched and
  // GRO really coalesced (bulk one-flow traffic is its home case).
  EXPECT_GT(batch_raises, 0u);
  EXPECT_GT(gro_merges, 0u);
  RecordProperty("batch_raises_total", static_cast<int>(batch_raises));
  RecordProperty("gro_merges_total", static_cast<int>(gro_merges));
}

// --- Part C: reply departures from a multi-frame burst ---------------------

// A point-to-point link that logs the instant each frame from one NIC
// reaches it.
class DepartureLog : public drivers::PointToPointLink {
 public:
  using PointToPointLink::PointToPointLink;
  void Watch(const drivers::Nic* nic) { watched_ = nic; }
  void Transmit(drivers::Nic* from, net::MbufPtr frame) override {
    if (from == watched_) departures.push_back(sim_.Now().ns());
    PointToPointLink::Transmit(from, std::move(frame));
  }
  std::vector<std::int64_t> departures;

 private:
  const drivers::Nic* watched_ = nullptr;
};

constexpr int kBurstFrames = 6;

struct EchoBurst {
  std::vector<std::int64_t> departures;  // server echoes reaching the wire
  std::vector<std::int64_t> task_done;   // completion of each echo's task
  std::vector<std::string> echoes;       // payloads back at the client
  std::vector<bool> thrower_in_batch;    // Host::in_batch() inside the thrower
  bool in_batch_after = true;
  std::uint64_t quarantines = 0;
  std::uint64_t slab_mbuf_in_use_after_crash = ~0ull;
};

std::string EchoRequest(int i) {
  return "echo-" + std::to_string(i) + std::string(static_cast<std::size_t>(7 * i), 'x');
}

// The client sends kBurstFrames requests in one task while the server's
// CPU is held by a 20 ms interrupt-level job, so they all wait in the rx
// ring and one interrupt drains them. crash_at_ns > 0 cuts the server's
// power at that instant; with_thrower installs a handler ahead of the echo
// that throws until it is quarantined. A last request goes out alone after
// the burst, as a control.
EchoBurst RunEchoBurst(bool batched, std::int64_t crash_at_ns = 0,
                       bool with_thrower = false) {
  ScopedBatchMode m(batched);
  EchoBurst out;
  sim::Simulator sim;
  DepartureLog link(sim);
  const auto costs = sim::CostModel::Default1996();
  const auto profile = drivers::DeviceProfile::Ethernet10();
  core::PlexusHost server(sim, "server", costs, profile,
                          {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24},
                          core::HandlerMode::kInterrupt, 1);
  core::PlexusHost client(sim, "client", costs, profile,
                          {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24},
                          core::HandlerMode::kInterrupt, 2);
  server.AttachTo(link);
  client.AttachTo(link);
  link.Watch(&server.nic());
  server.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  client.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  server.arp().AddStatic(net::Ipv4Address(10, 0, 0, 2), net::MacAddress::FromId(2));
  client.arp().AddStatic(net::Ipv4Address(10, 0, 0, 1), net::MacAddress::FromId(1));

  {
    auto echo = server.udp().CreateEndpoint(7).value();
    if (with_thrower) {
      spin::HandlerOptions opts;
      opts.ephemeral = true;
      opts.name = "thrower";
      EXPECT_TRUE(echo->InstallReceiveHandler(
                          [&](const net::Mbuf&, const proto::UdpDatagram&) {
                            out.thrower_in_batch.push_back(server.host().in_batch());
                            throw std::runtime_error("extension bug");
                          },
                          opts)
                      .ok());
    }
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "echo";
    core::UdpEndpoint* ep = echo.get();
    EXPECT_TRUE(ep->InstallReceiveHandler(
                      [&, ep](const net::Mbuf& payload, const proto::UdpDatagram& d) {
                        ep->Send(net::Mbuf::FromBytes(payload.Linearize()), d.src_ip,
                                 d.src_port);
                        server.host().AfterTask(
                            [&] { out.task_done.push_back(sim.Now().ns()); });
                      },
                      opts)
                    .ok());
    auto rx = client.udp().CreateEndpoint(5000).value();
    opts.name = "echo-sink";
    EXPECT_TRUE(rx->InstallReceiveHandler(
                      [&](const net::Mbuf& payload, const proto::UdpDatagram&) {
                        out.echoes.push_back(payload.ToString());
                      },
                      opts)
                    .ok());

    server.host().Submit(sim::Priority::kInterrupt,
                         [&] { server.host().Charge(sim::Duration::Millis(20)); });
    client.Run([&] {
      for (int i = 0; i < kBurstFrames; ++i) {
        rx->Send(net::Mbuf::FromString(EchoRequest(i)), net::Ipv4Address(10, 0, 0, 1), 7);
      }
    });
    if (crash_at_ns > 0) {
      // An endpoint must not outlive the UDP manager a crash tears down.
      sim.ScheduleAt(sim::TimePoint() + sim::Duration::Nanos(crash_at_ns), [&] {
        echo.reset();
        server.Crash();
      });
    }
    sim.RunFor(sim::Duration::Millis(100));
    if (crash_at_ns > 0) {
      out.slab_mbuf_in_use_after_crash = sim::SlabRegistry::InUse("mbuf");
    } else {
      client.Run([&] {
        rx->Send(net::Mbuf::FromString(EchoRequest(kBurstFrames)),
                 net::Ipv4Address(10, 0, 0, 1), 7);
      });
      sim.RunFor(sim::Duration::Millis(100));
    }
    out.in_batch_after = server.host().in_batch();
    out.quarantines = server.dispatcher().stats().quarantines;
  }
  out.departures = link.departures;
  return out;
}

TEST(BatchDeparture, BurstEchoesLeaveAsTheCpuIssuesThem) {
  const EchoBurst on = RunEchoBurst(/*batched=*/true);
  ASSERT_EQ(on.echoes.size(), static_cast<std::size_t>(kBurstFrames + 1));
  for (int i = 0; i <= kBurstFrames; ++i) EXPECT_EQ(on.echoes[i], EchoRequest(i));
  ASSERT_EQ(on.departures.size(), static_cast<std::size_t>(kBurstFrames + 1));
  ASSERT_EQ(on.task_done.size(), static_cast<std::size_t>(kBurstFrames + 1));
  // One task ran the whole burst; each echo left when the CPU had issued
  // it, strictly before that task retired, except the last.
  for (int i = 1; i < kBurstFrames; ++i) {
    EXPECT_EQ(on.task_done[i], on.task_done[0]);
    EXPECT_LE(on.departures[i - 1], on.departures[i]);
  }
  for (int i = 0; i + 1 < kBurstFrames; ++i) EXPECT_LT(on.departures[i], on.task_done[i]) << i;
  EXPECT_LE(on.departures[kBurstFrames - 1], on.task_done[kBurstFrames - 1]);
  // The lone control request is single-frame work: it leaves at its task's
  // completion, as in the per-packet engine.
  EXPECT_EQ(on.departures[kBurstFrames], on.task_done[kBurstFrames]);
  EXPECT_FALSE(on.in_batch_after);
}

TEST(BatchDeparture, PerPacketEngineKeepsItsDepartureTimes) {
  const EchoBurst off = RunEchoBurst(/*batched=*/false);
  ASSERT_EQ(off.echoes.size(), static_cast<std::size_t>(kBurstFrames + 1));
  for (int i = 0; i <= kBurstFrames; ++i) EXPECT_EQ(off.echoes[i], EchoRequest(i));
  // One interrupt per frame; every echo leaves at its own task's end. The
  // instants are the ones the per-packet engine has always produced.
  EXPECT_EQ(off.departures, off.task_done);
  const std::vector<std::int64_t> want = {20'265'044, 20'530'200, 20'795'468, 21'060'848,
                                          21'326'340, 21'591'944, 100'488'524};
  EXPECT_EQ(off.departures, want);
}

TEST(BatchDeparture, CrashDropsPendingDepartures) {
  const EchoBurst on = RunEchoBurst(/*batched=*/true);
  ASSERT_EQ(on.departures.size(), static_cast<std::size_t>(kBurstFrames + 1));
  // Power fails after the first echo left and before the burst task ends.
  const std::int64_t crash_at = (on.departures[0] + on.task_done[0]) / 2;
  ASSERT_GT(crash_at, on.departures[0]);
  const EchoBurst crashed = RunEchoBurst(/*batched=*/true, crash_at);
  ASSERT_FALSE(crashed.departures.empty());
  EXPECT_LT(crashed.departures.size(), static_cast<std::size_t>(kBurstFrames));
  for (const std::int64_t t : crashed.departures) EXPECT_LE(t, crash_at);
  for (std::size_t i = 0; i < crashed.departures.size(); ++i) {
    EXPECT_EQ(crashed.departures[i], on.departures[i]);
  }
  EXPECT_EQ(crashed.slab_mbuf_in_use_after_crash, 0u);
}

TEST(BatchDeparture, QuarantineInsideTheBurstUnwindsTheBatchScope) {
  const EchoBurst on = RunEchoBurst(/*batched=*/true, 0, /*with_thrower=*/true);
  EXPECT_EQ(on.quarantines, 1u);
  const std::vector<bool> in_batch(core::kDefaultMaxStrikes, true);
  EXPECT_EQ(on.thrower_in_batch, in_batch);
  EXPECT_FALSE(on.in_batch_after);
  ASSERT_EQ(on.echoes.size(), static_cast<std::size_t>(kBurstFrames + 1));
  for (int i = 0; i <= kBurstFrames; ++i) EXPECT_EQ(on.echoes[i], EchoRequest(i));
  ASSERT_EQ(on.departures.size(), static_cast<std::size_t>(kBurstFrames + 1));
  EXPECT_LT(on.departures[0], on.task_done[0]);
  EXPECT_EQ(on.departures[kBurstFrames], on.task_done[kBurstFrames]);
}

}  // namespace
