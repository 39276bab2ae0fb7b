#include "perfbench/cpp/cells.h"

#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "drivers/medium.h"
#include "os/sockets.h"

namespace perfbench {

namespace {

core::PlexusHost::NetConfig PNet(int id) {
  return {net::MacAddress::FromId(static_cast<std::uint32_t>(id)),
          net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)), 24};
}

os::SocketHost::NetConfig ONet(int id) {
  return {net::MacAddress::FromId(static_cast<std::uint32_t>(id)),
          net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)), 24};
}

const net::Ipv4Address kSubnet(10, 0, 0, 0);
const net::Ipv4Address kServerIp(10, 0, 0, 2);

std::unique_ptr<drivers::Medium> MakeMedium(sim::Simulator& sim,
                                            const drivers::DeviceProfile& profile,
                                            std::uint64_t fault_seed) {
  if (profile.name.rfind("ethernet", 0) == 0) {
    return std::make_unique<drivers::EthernetSegment>(sim, fault_seed);
  }
  return std::make_unique<drivers::PointToPointLink>(sim, fault_seed);
}

proto::TcpConfig TcpConfigFor(const drivers::DeviceProfile& profile) {
  proto::TcpConfig cfg;
  cfg.mss = profile.mtu - 40;
  cfg.send_buffer = 64 * 1024;
  cfg.recv_window = 48 * 1024;
  return cfg;
}

std::vector<std::byte> StreamBytes(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                                   std::size_t n) {
  std::vector<std::byte> v(n);
  FillStream(seed, stream, offset, v);
  return v;
}

// Payload of ping i: its own slice of the stream.
constexpr std::uint64_t kPingStride = 1 << 16;

bool Matches(const net::Mbuf& m, std::size_t skip, const std::vector<std::byte>& want) {
  if (m.PacketLength() != skip + want.size()) return false;
  std::vector<std::byte> got(want.size());
  m.CopyOut(skip, got);
  return got == want;
}

// Drives a ping-pong: `send(i)` transmits ping i; the receive path calls
// OnReply with whether the echo came back exact. Ping 0 (the first size)
// pays ARP and is not timed.
struct PingLoop {
  PingLoop(sim::Simulator& s, const std::vector<std::size_t>& sz) : sim(s), sizes(sz) {}

  sim::Simulator& sim;
  const std::vector<std::size_t>& sizes;
  std::function<void(std::size_t)> send;
  std::size_t next = 0;  // index of the ping in flight (0 = warm-up)
  sim::TimePoint sent_at;
  std::vector<std::int64_t> rtt_ns;
  std::uint64_t bad = 0;

  std::size_t SizeOf(std::size_t i) const { return sizes[i == 0 ? 0 : i - 1]; }
  void Start() { send(0); }
  void OnReply(bool exact) {
    if (!exact) ++bad;
    if (next > 0) rtt_ns.push_back((sim.Now() - sent_at).ns());
    if (++next <= sizes.size()) send(next);
  }
  bool done() const { return next > sizes.size(); }
};

void RunUntil(Context& ctx, sim::Simulator& sim, const std::function<bool()>& done,
              sim::Duration cap) {
  const sim::TimePoint limit = sim.Now() + cap;
  while (!done() && sim.Now() < limit) ctx.RunFor(sim, sim::Duration::Seconds(1));
}

}  // namespace

const char* SystemName(System s) {
  switch (s) {
    case System::kPlexusInterrupt: return "plexus-interrupt";
    case System::kPlexusThread: return "plexus-thread";
    case System::kDigitalUnix: return "digital-unix";
    case System::kDriver: return "driver";
  }
  return "?";
}

PingResult Ping(Context& ctx, System system, const drivers::DeviceProfile& profile,
                const std::vector<std::size_t>& sizes, std::uint64_t stream) {
  const std::uint64_t seed = ctx.seed();
  sim::Simulator sim;
  ctx.Prepare(sim);
  std::optional<Context::SetupPhase> setup(ctx);
  auto medium = MakeMedium(sim, profile, Mix(seed, stream, 0));
  PingLoop loop(sim, sizes);
  auto expect = [&](std::size_t i) {
    return StreamBytes(seed, stream, i * kPingStride, loop.SizeOf(i));
  };

  std::optional<core::PlexusHost> pa, pb;
  std::optional<os::SocketHost> oa, ob;
  std::optional<sim::Host> ha, hb;
  std::optional<drivers::Nic> na, nb;
  std::shared_ptr<core::UdpEndpoint> pclient, pserver;
  std::optional<os::UdpSocket> oclient, oserver;
  {
    SpanLog::Scope span("core.setup");
    if (system == System::kPlexusInterrupt || system == System::kPlexusThread) {
      const auto mode = system == System::kPlexusInterrupt ? core::HandlerMode::kInterrupt
                                                           : core::HandlerMode::kThread;
      pa.emplace(sim, "a", sim::CostModel::Default1996(), profile, PNet(1), mode, Mix(seed, stream, 1));
      pb.emplace(sim, "b", sim::CostModel::Default1996(), profile, PNet(2), mode, Mix(seed, stream, 2));
      pa->AttachTo(*medium);
      pb->AttachTo(*medium);
      pa->ip_layer().routes().Add(kSubnet, 24);
      pb->ip_layer().routes().Add(kSubnet, 24);
      pclient = pa->udp().CreateEndpoint(5000).value();
      pserver = pb->udp().CreateEndpoint(7).value();
      spin::HandlerOptions opts;
      opts.ephemeral = true;
      (void)pserver->InstallReceiveHandler(
          [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
            SpanLog::Scope app("app.handler", loop.next + 1);
            sim::TraceSpan trace(pb->host(), "app.echo", "app");
            pserver->Send(p.DeepCopy(), info.src_ip, info.src_port);
          },
          opts);
      (void)pclient->InstallReceiveHandler(
          [&](const net::Mbuf& p, const proto::UdpDatagram&) {
            SpanLog::Scope app("app.handler", loop.next + 1);
            loop.OnReply(Matches(p, 0, expect(loop.next)));
          },
          opts);
      loop.send = [&](std::size_t i) {
        pa->Run([&, i] {
          loop.sent_at = sim.Now();
          pclient->Send(net::Mbuf::FromBytes(expect(i)), kServerIp, 7);
        });
      };
    } else if (system == System::kDigitalUnix) {
      oa.emplace(sim, "a", sim::CostModel::Default1996(), profile, ONet(1), Mix(seed, stream, 1));
      ob.emplace(sim, "b", sim::CostModel::Default1996(), profile, ONet(2), Mix(seed, stream, 2));
      oa->AttachTo(*medium);
      ob->AttachTo(*medium);
      oa->ip_layer().routes().Add(kSubnet, 24);
      ob->ip_layer().routes().Add(kSubnet, 24);
      oclient.emplace(*oa, 5000);
      oserver.emplace(*ob, 7);
      oserver->SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram& info) {
        SpanLog::Scope app("app.handler", loop.next + 1);
        oserver->SendTo(std::span<const std::byte>(data), info.src_ip, info.src_port);
      });
      oclient->SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram&) {
        SpanLog::Scope app("app.handler", loop.next + 1);
        loop.OnReply(data == expect(loop.next));
      });
      loop.send = [&](std::size_t i) {
        oa->RunUser([&, i] {
          loop.sent_at = sim.Now();
          oclient->SendTo(expect(i), kServerIp, 7);
        });
      };
    } else {
      // Echo in the receive interrupt, no protocol processing at all. The
      // frame mirrors the UDP experiment: payload + 42 bytes of headers.
      ha.emplace(sim, "a", sim::CostModel::Default1996(), Mix(seed, stream, 1));
      hb.emplace(sim, "b", sim::CostModel::Default1996(), Mix(seed, stream, 2));
      na.emplace(*ha, profile, net::MacAddress::FromId(1));
      nb.emplace(*hb, profile, net::MacAddress::FromId(2));
      na->AttachMedium(medium.get());
      nb->AttachMedium(medium.get());
      na->set_promiscuous(true);
      nb->set_promiscuous(true);
      nb->SetReceiveCallback([&](net::MbufPtr frame) { nb->Transmit(std::move(frame)); });
      na->SetReceiveCallback([&](net::MbufPtr frame) {
        SpanLog::Scope app("app.handler", loop.next + 1);
        loop.OnReply(Matches(*frame, 42, expect(loop.next)));
      });
      loop.send = [&](std::size_t i) {
        ha->Submit(sim::Priority::kKernel, [&, i] {
          loop.sent_at = sim.Now();
          std::vector<std::byte> frame(42);
          const auto payload = expect(i);
          frame.insert(frame.end(), payload.begin(), payload.end());
          na->Transmit(net::Mbuf::FromBytes(frame));
        });
      };
    }
  }
  loop.Start();
  setup.reset();
  RunUntil(ctx, sim, [&] { return loop.done(); }, sim::Duration::Seconds(30));
  ctx.RunFor(sim, sim::Duration::Seconds(1));

  const std::uint64_t ok = loop.rtt_ns.size() - std::min<std::uint64_t>(loop.bad, loop.rtt_ns.size());
  ctx.Operations(sizes.size(), sizes.size() - ok);
  ctx.Gate(loop.done() && loop.bad == 0,
           std::string("every echo returns exact: ") + SystemName(system) + " on " + profile.name);
  ctx.CollectSim(sim);
  if (pa) {
    ctx.CollectHost(*pa);
    ctx.CollectHost(*pb);
  } else if (oa) {
    ctx.CollectHost(*oa);
    ctx.CollectHost(*ob);
  } else {
    ctx.CollectHost(*ha);
    ctx.CollectHost(*hb);
  }

  PingResult r;
  r.rtt_ns = std::move(loop.rtt_ns);
  double sum = 0;
  for (const std::int64_t v : r.rtt_ns) sum += static_cast<double>(v);
  r.mean_us = r.rtt_ns.empty() ? 0 : sum / static_cast<double>(r.rtt_ns.size()) / 1e3;
  return r;
}

TransferResult Transfer(Context& ctx, System system, const drivers::DeviceProfile& profile,
                        std::uint64_t bytes, std::uint64_t stream, const Messages* messages) {
  const std::uint64_t seed = ctx.seed();
  sim::Simulator sim;
  ctx.Prepare(sim);
  std::optional<Context::SetupPhase> setup(ctx);
  auto medium = MakeMedium(sim, profile, Mix(seed, stream, 0));
  TransferResult r;
  r.mss = profile.mtu - 40;

  // Message boundaries (end offsets) and the instant each message's first
  // byte was accepted by the sender's transport.
  std::vector<std::uint64_t> msg_end;
  sim::Random wakeups(Mix(seed, stream, 3));
  auto next_poll = [&] {
    return messages == nullptr ? sim::Duration::Millis(5)
                               : wakeups.UniformDuration(sim::Duration::Millis(1), sim::Duration::Millis(9));
  };
  if (messages != nullptr) {
    const std::uint64_t span = messages->max_bytes - messages->min_bytes + 1;
    std::uint64_t at = 0;
    for (std::uint64_t k = 0; at < bytes; ++k) {
      at = std::min(bytes, at + messages->min_bytes + Mix(seed, stream + 1, k) % span);
      msg_end.push_back(at);
    }
  }
  std::vector<sim::TimePoint> msg_start(msg_end.size());
  std::size_t next_start = 0;  // first message whose start is not yet stamped
  std::size_t next_end = 0;    // first message not yet fully delivered

  std::uint64_t queued = 0;
  std::uint64_t received = 0;
  std::uint64_t mismatches = 0;
  sim::TimePoint first_at, last_at;
  std::vector<std::byte> scratch;  // receiver side
  std::vector<std::byte> tx;       // sender side
  auto on_accepted = [&](std::uint64_t upto) {
    while (next_start < msg_end.size() &&
           (next_start == 0 ? 0 : msg_end[next_start - 1]) < upto) {
      msg_start[next_start++] = sim.Now();
    }
  };
  auto on_data = [&](std::span<const std::byte> d) {
    SpanLog::Scope app("app.handler", 1);
    if (received == 0) first_at = sim.Now();
    scratch.resize(d.size());
    FillStream(seed, stream, received, scratch);
    if (std::memcmp(scratch.data(), d.data(), d.size()) != 0) ++mismatches;
    received += d.size();
    last_at = sim.Now();
    while (next_end < msg_end.size() && msg_end[next_end] <= received) {
      r.message_ns.push_back((sim.Now() - msg_start[next_end]).ns());
      ++next_end;
    }
  };

  std::optional<core::PlexusHost> pa, pb;
  std::optional<os::SocketHost> oa, ob;
  std::optional<sim::Host> ha, hb;
  std::optional<drivers::Nic> na, nb;
  std::shared_ptr<core::PlexusTcpEndpoint> psender, preceiver;
  std::shared_ptr<os::TcpSocket> osender, oreceiver;
  std::optional<os::TcpListener> olistener;
  std::function<void()> pump;
  std::function<void()> finish;  // closes both ends once everything arrived
  std::uint64_t blasted = 0;
  {
    SpanLog::Scope span("core.setup");
    if (system == System::kPlexusInterrupt || system == System::kPlexusThread) {
      const auto mode = system == System::kPlexusInterrupt ? core::HandlerMode::kInterrupt
                                                           : core::HandlerMode::kThread;
      pa.emplace(sim, "a", sim::CostModel::Default1996(), profile, PNet(1), mode, Mix(seed, stream, 1));
      pb.emplace(sim, "b", sim::CostModel::Default1996(), profile, PNet(2), mode, Mix(seed, stream, 2));
      pa->AttachTo(*medium);
      pb->AttachTo(*medium);
      pa->ip_layer().routes().Add(kSubnet, 24);
      pb->ip_layer().routes().Add(kSubnet, 24);
      pa->tcp().set_config(TcpConfigFor(profile));
      pb->tcp().set_config(TcpConfigFor(profile));
      pb->tcp().Listen(5001, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        preceiver = ep;
        ep->SetOnData(on_data);
      });
      // The Section 4.2 sender: 32 KiB writes until the transport refuses
      // part of one, then poll again later. Only bytes the transport has
      // room for are generated; the calls into TCP are the same.
      pump = [&] {
        SpanLog::Scope app("app.handler", 1);
        auto& conn = psender->connection();
        while (queued < bytes) {
          const std::size_t room = 64 * 1024 - std::min<std::size_t>(64 * 1024, conn.send_queue_bytes());
          const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(32 * 1024, bytes - queued));
          const std::size_t n = std::min(want, room);
          tx.resize(n);
          FillStream(seed, stream, queued, tx);
          const std::size_t took = conn.Send(std::span<const std::byte>(tx.data(), n));
          queued += took;
          on_accepted(queued);
          if (took < want) break;
        }
        if (queued < bytes) {
          sim.Schedule(next_poll(), [&] { pa->Run([&] { pump(); }); });
        }
      };
      pa->Run([&] {
        {
          SpanLog::Scope connect("core.connect", 1);
          psender = pa->tcp().Connect(kServerIp, 5001);
        }
        psender->SetOnEstablished([&] { pump(); });
      });
      finish = [&] {
        pa->Run([&] { psender->CloseStream(); });
        pb->Run([&] { preceiver->CloseStream(); });
      };
    } else if (system == System::kDigitalUnix) {
      oa.emplace(sim, "a", sim::CostModel::Default1996(), profile, ONet(1), Mix(seed, stream, 1));
      ob.emplace(sim, "b", sim::CostModel::Default1996(), profile, ONet(2), Mix(seed, stream, 2));
      oa->AttachTo(*medium);
      ob->AttachTo(*medium);
      oa->ip_layer().routes().Add(kSubnet, 24);
      ob->ip_layer().routes().Add(kSubnet, 24);
      oa->tcp_config() = TcpConfigFor(profile);
      ob->tcp_config() = TcpConfigFor(profile);
      olistener.emplace(*ob, 5001, [&](std::shared_ptr<os::TcpSocket> s) {
        oreceiver = s;
        s->SetOnData(on_data);
      });
      {
        SpanLog::Scope connect("core.connect", 1);
        osender = os::TcpSocket::Connect(*oa, kServerIp, 5001);
      }
      // write(2) takes everything into the user-side buffer; pace by the
      // kernel buffer instead so memory stays bounded.
      pump = [&] {
        SpanLog::Scope app("app.handler", 1);
        while (queued < bytes && osender->connection().send_queue_bytes() <= 48 * 1024) {
          const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(32 * 1024, bytes - queued));
          tx.resize(n);
          FillStream(seed, stream, queued, tx);
          osender->Write(std::span<const std::byte>(tx.data(), n));
          queued += n;
          on_accepted(queued);
        }
        if (queued < bytes) sim.Schedule(next_poll(), [&] { pump(); });
      };
      osender->SetOnEstablished([&] { pump(); });
      finish = [&] {
        osender->CloseStream();
        oreceiver->CloseStream();
      };
    } else {
      ha.emplace(sim, "a", sim::CostModel::Default1996(), Mix(seed, stream, 1));
      hb.emplace(sim, "b", sim::CostModel::Default1996(), Mix(seed, stream, 2));
      na.emplace(*ha, profile, net::MacAddress::FromId(1));
      nb.emplace(*hb, profile, net::MacAddress::FromId(2));
      na->AttachMedium(medium.get());
      nb->AttachMedium(medium.get());
      na->set_promiscuous(true);
      nb->set_promiscuous(true);
      nb->SetReceiveCallback([&](net::MbufPtr frame) {
        if (received == 0) first_at = sim.Now();
        received += frame->PacketLength();
        last_at = sim.Now();
      });
      pump = [&] {
        if (blasted >= bytes) return;
        ha->Submit(sim::Priority::kKernel, [&] {
          na->Transmit(net::Mbuf::Allocate(profile.mtu));
          blasted += profile.mtu;
          ha->AfterTask(pump);  // back-to-back: next frame when the CPU is free
        });
      };
      pump();
      finish = [] {};
    }
  }
  setup.reset();
  RunUntil(ctx, sim, [&] { return received >= bytes; }, sim::Duration::Seconds(600));
  if (received >= bytes) finish();
  ctx.RunFor(sim, sim::Duration::Seconds(40));  // FIN exchange + 2MSL

  r.bytes = received;
  if (received > 0 && last_at > first_at) {
    r.mbps = static_cast<double>(received) * 8.0 / (last_at - first_at).seconds() / 1e6;
  }
  if (pb) r.receiver_tx_frames = pb->nic().stats().tx_frames;
  if (ob) r.receiver_tx_frames = ob->nic().stats().tx_frames;
  const bool ok = received >= bytes && mismatches == 0 && r.message_ns.size() == msg_end.size();
  ctx.Operations(1, ok ? 0 : 1);
  ctx.Gate(ok, std::string("transfer arrives complete and byte-exact: ") + SystemName(system) +
                   " on " + profile.name);
  ctx.CollectSim(sim);
  if (pa) {
    ctx.CollectHost(*pa);
    ctx.CollectHost(*pb);
  } else if (oa) {
    ctx.CollectHost(*oa);
    ctx.CollectHost(*ob);
  } else {
    ctx.CollectHost(*ha);
    ctx.CollectHost(*hb);
  }
  return r;
}

}  // namespace perfbench
