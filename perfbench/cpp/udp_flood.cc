// udp_flood: open-loop 64-byte UDP echo against a protected thread-mode
// server, from below its calibrated capacity up to 10x, while a closed-loop
// sequential HTTP client shares the server's NIC.
//
// At the smallest packet size per-packet cost in the drivers, the
// dispatcher and the mbuf layer dominates. Requests arrive as a Poisson
// process at each offered rate; each is injected at the server's NIC at its
// due time (so generator lateness is zero by construction) and its echo is
// timed from that due time to its arrival back at the generator's tap.
// Echoes offered at or below capacity are operations that must succeed;
// frames shed above capacity are load, not failures.
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "drivers/medium.h"
#include "net/checksum.h"
#include "net/mbuf_pool.h"
#include "perfbench/cpp/harness.h"
#include "proto/http.h"
#include "sim/slab.h"

namespace perfbench {

namespace {

constexpr std::uint16_t kEchoPort = 7;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kHeaderBytes =
    sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header) + sizeof(net::UdpHeader);
constexpr std::size_t kBodyBytes = 256;
const sim::Duration kWindow = sim::Duration::Millis(500);
// The latency point runs longer, for a steady p99.
const sim::Duration kLatencyWindow = sim::Duration::Seconds(10);
// Offered load as multiples of the calibrated capacity. The points at or
// below 1 must be served in full.
constexpr double kLadder[] = {0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2.0, 5.0, 10.0};
constexpr double kLatencyPoint = 0.5;
// SLO echo latency limit, fixed from the unloaded RTT: about four times the
// p99 echo RTT at a quarter of capacity (1.03 ms at seed 1).
const sim::Duration kSloLimit = sim::Duration::Millis(4);

const net::Ipv4Address kServerIp(10, 0, 0, 1);
const net::Ipv4Address kGeneratorIp(10, 0, 0, 2);
const net::Ipv4Address kClientIp(10, 0, 0, 3);
const net::MacAddress kServerMac = net::MacAddress::FromId(1);
const net::MacAddress kGeneratorMac = net::MacAddress::FromId(2);
const net::MacAddress kClientMac = net::MacAddress::FromId(3);

// The device under test: a fast-driver Ethernet whose wire is not the
// bottleneck (the CPU is), with the receive-overload defenses on: finite rx
// ring, interrupt->poll switch.
drivers::DeviceProfile FloodProfile() {
  auto p = drivers::DeviceProfile::Ethernet10FastDriver();
  p.name = "ethernet-fast-protected";
  p.bandwidth_bps = 1'000'000'000;
  p.inter_frame_gap = sim::Duration::Zero();
  p.propagation = sim::Duration::Micros(1);
  p.rx_ring_depth = 256;
  p.poll_threshold = 0.25;
  p.poll_window = sim::Duration::Millis(1);
  p.poll_quota = 8;
  return p;
}

void Payload(std::uint64_t seed, std::uint64_t seq, std::span<std::byte> out) {
  std::memcpy(out.data(), &seq, sizeof(seq));
  FillStream(seed, 60, seq * kPayloadBytes, out.subspan(sizeof(seq)));
}

// A framed Ethernet+IPv4+UDP echo request, as the generator puts it on the
// wire. UDP checksum 0 ("not computed"); the IP header checksum is valid.
net::MbufPtr RequestFrame(std::uint64_t seed, std::uint64_t seq) {
  std::byte bytes[kHeaderBytes + kPayloadBytes];
  net::EthernetHeader eth;
  eth.dst = kServerMac;
  eth.src = kGeneratorMac;
  eth.type = net::ethertype::kIpv4;
  net::Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(sizeof(net::Ipv4Header) + sizeof(net::UdpHeader) +
                                               kPayloadBytes);
  ip.protocol = net::ipproto::kUdp;
  ip.src = kGeneratorIp;
  ip.dst = kServerIp;
  ip.checksum = 0;
  std::byte raw[sizeof(net::Ipv4Header)];
  std::memcpy(raw, &ip, sizeof(ip));
  ip.checksum = net::Checksum({raw, sizeof(raw)});
  net::UdpHeader udp;
  udp.src_port = 4000;
  udp.dst_port = kEchoPort;
  udp.length = static_cast<std::uint16_t>(sizeof(net::UdpHeader) + kPayloadBytes);
  udp.checksum = 0;
  std::memcpy(bytes, &eth, sizeof(eth));
  std::memcpy(bytes + sizeof(eth), &ip, sizeof(ip));
  std::memcpy(bytes + sizeof(eth) + sizeof(ip), &udp, sizeof(udp));
  Payload(seed, seq, {bytes + kHeaderBytes, kPayloadBytes});
  return net::Mbuf::FromBytes(bytes);
}

// The protected server with its echo extension.
struct Server {
  core::PlexusHost host;
  std::shared_ptr<core::UdpEndpoint> echo;

  Server(sim::Simulator& sim, std::uint64_t seed)
      : host(sim, "server", sim::CostModel::Default1996(), FloodProfile(), {kServerMac, kServerIp, 24},
             core::HandlerMode::kThread, seed) {
    host.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    host.arp().AddStatic(kGeneratorIp, kGeneratorMac);
    host.arp().AddStatic(kClientIp, kClientMac);
    echo = host.udp().CreateEndpoint(kEchoPort).value();
    echo->set_checksum_enabled(false);
    (void)echo->InstallReceiveHandler([this](const net::Mbuf& payload, const proto::UdpDatagram& info) {
      std::uint64_t seq = 0;
      if (payload.PacketLength() >= sizeof(seq)) {
        payload.CopyOut(0, {reinterpret_cast<std::byte*>(&seq), sizeof(seq)});
      }
      SpanLog::Scope app("app.handler", seq + 1);
      sim::TraceSpan trace(host.host(), "app.echo", "app");
      std::byte tmp[kPayloadBytes];
      const std::size_t n = std::min(payload.PacketLength(), kPayloadBytes);
      payload.CopyOut(0, {tmp, n});
      auto out = net::PoolFromBytes(host.host().mbuf_pool(), {tmp, n});
      if (out == nullptr) return;  // pool dry: the echo is dropped
      echo->Send(std::move(out), info.src_ip, info.src_port);
    });
  }
};

// Echo capacity of the protected server: CPU busy time per echoed packet
// at a trivially low offered load.
double CalibrateCapacity(Context& ctx) {
  sim::Simulator sim;
  ctx.Prepare(sim);
  drivers::EthernetSegment segment(sim, Mix(ctx.seed(), 61, 0));
  std::optional<Server> server;
  std::optional<sim::Host> gen_host;
  std::optional<drivers::Nic> gen;
  {
    SpanLog::Scope span("core.setup");
    server.emplace(sim, Mix(ctx.seed(), 61, 1));
    server->host.AttachTo(segment);
    gen_host.emplace(sim, "generator", sim::CostModel::Default1996(), Mix(ctx.seed(), 61, 2));
    gen.emplace(*gen_host, FloodProfile(), kGeneratorMac);
    gen->AttachMedium(&segment);
  }
  std::uint64_t echoes = 0;
  gen->SetReceiveCallback([&echoes](net::MbufPtr) { ++echoes; });
  constexpr int kProbes = 64;
  for (int i = 0; i < kProbes; ++i) {
    sim.Schedule(sim::Duration::Millis(1 + 2 * i), [&, i] {
      SpanLog::Scope deliver("drivers.deliver", static_cast<std::uint64_t>(i) + 1);
      server->host.nic().DeliverFromWire(RequestFrame(ctx.seed(), static_cast<std::uint64_t>(i)), true);
    });
  }
  ctx.RunFor(sim, sim::Duration::Seconds(2));
  ctx.Frames(kProbes);
  ctx.Gate(echoes == kProbes, "every calibration probe is echoed");
  ctx.CollectSim(sim);
  ctx.CollectHost(server->host);
  ctx.CollectHost(*gen_host);
  if (echoes == 0) return 0;
  return static_cast<double>(echoes) / server->host.host().cpu().busy_total().seconds();
}

struct PointResult {
  std::uint64_t offered = 0;
  std::uint64_t echoed = 0;            // exact echoes, ever
  std::uint64_t echoed_in_window = 0;  // exact echoes before the window closed
  std::uint64_t corrupt = 0;
  std::vector<std::int64_t> rtt_ns;
  std::int64_t lateness_ns = 0;
  std::uint64_t gets = 0;
  std::uint64_t gets_ok = 0;
  std::uint64_t responses_in_window = 0;
};

PointResult RunPoint(Context& ctx, double offered_pps, sim::Duration window, std::uint64_t point) {
  const std::uint64_t seed = ctx.seed();
  const std::uint64_t stream = 70 + point;
  sim::Simulator sim;
  ctx.Prepare(sim);
  std::optional<Context::SetupPhase> setup(ctx);
  drivers::EthernetSegment segment(sim, Mix(seed, stream, 0));
  std::optional<Server> server;
  std::optional<core::PlexusHost> client;
  std::optional<sim::Host> gen_host;
  std::optional<drivers::Nic> gen;
  std::vector<std::unique_ptr<proto::HttpServerConnection>> http_conns;
  const std::string body = [&] {
    std::string b(kBodyBytes, '\0');
    for (std::size_t i = 0; i < kBodyBytes; ++i) b[i] = static_cast<char>('a' + Mix(seed, stream, 100 + i) % 26);
    return b;
  }();
  {
    SpanLog::Scope span("core.setup");
    server.emplace(sim, Mix(seed, stream, 1));
    server->host.AttachTo(segment);
    client.emplace(sim, "client", sim::CostModel::Default1996(), FloodProfile(),
                   core::PlexusHost::NetConfig{kClientMac, kClientIp, 24}, core::HandlerMode::kThread,
                   Mix(seed, stream, 2));
    client->AttachTo(segment);
    client->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    client->arp().AddStatic(kServerIp, kServerMac);
    gen_host.emplace(sim, "generator", sim::CostModel::Default1996(), Mix(seed, stream, 3));
    gen.emplace(*gen_host, FloodProfile(), kGeneratorMac);
    gen->AttachMedium(&segment);
    server->host.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      http_conns.push_back(std::make_unique<proto::HttpServerConnection>(
          *ep, [&](const std::string&) -> std::optional<std::string> {
            SpanLog::Scope app("app.handler");
            sim::TraceSpan trace(server->host.host(), "app.http_serve", "app");
            server->host.host().Charge(server->host.host().costs().http_parse);
            return body;
          }));
    });
  }

  PointResult r;
  const sim::TimePoint start = sim::TimePoint::FromNanos(0) + sim::Duration::Millis(1);
  const sim::TimePoint window_end = start + window;
  std::vector<sim::TimePoint> due;  // per request
  gen->SetReceiveCallback([&](net::MbufPtr frame) {
    std::byte got[kPayloadBytes];
    if (frame->PacketLength() != kHeaderBytes + kPayloadBytes) {
      ++r.corrupt;
      return;
    }
    frame->CopyOut(kHeaderBytes, got);
    std::uint64_t seq = 0;
    std::memcpy(&seq, got, sizeof(seq));
    SpanLog::Scope app("app.handler", seq + 1);
    std::byte want[kPayloadBytes];
    Payload(seed, seq, want);
    if (seq >= due.size() || std::memcmp(got, want, kPayloadBytes) != 0) {
      ++r.corrupt;
      return;
    }
    ++r.echoed;
    if (sim.Now() <= window_end) ++r.echoed_in_window;
    r.rtt_ns.push_back((sim.Now() - due[seq]).ns());
  });

  // Poisson arrivals: each arrival injects its request and schedules the next.
  sim::Random arrivals(Mix(seed, stream, 4));
  const sim::Duration mean_gap = sim::Duration::SecondsF(1.0 / offered_pps);
  std::function<void(sim::TimePoint)> arrive = [&](sim::TimePoint at) {
    if (at >= window_end) return;
    const std::uint64_t seq = due.size();
    due.push_back(at);
    sim.ScheduleAt(at, [&, seq, at] {
      r.lateness_ns = std::max(r.lateness_ns, (sim.Now() - at).ns());
      {
        SpanLog::Scope deliver("drivers.deliver", seq + 1);
        server->host.nic().DeliverFromWire(RequestFrame(seed, seq), true);
      }
      arrive(at + arrivals.Exponential(mean_gap));
    });
  };
  arrive(start + arrivals.Exponential(mean_gap));

  // Closed-loop sequential HTTP client: the next GET starts when the last
  // response arrives, until the window closes.
  struct Get {
    std::shared_ptr<core::PlexusTcpEndpoint> conn;
    std::unique_ptr<proto::HttpClient> http;
  };
  std::vector<Get> gets;
  std::function<void()> next_get = [&] {
    if (sim.Now() >= window_end) return;
    const std::uint64_t id = ++r.gets;
    Get& g = gets.emplace_back();
    {
      SpanLog::Scope span("core.connect", id);
      g.conn = client->tcp().Connect(kServerIp, 80);
    }
    g.http = std::make_unique<proto::HttpClient>(*g.conn, [&, id](const proto::HttpClient::Response& resp) {
      SpanLog::Scope app("app.handler", id);
      gets[id - 1].conn->CloseStream();
      if (resp.status == 200 && resp.body == body) {
        ++r.gets_ok;
        if (sim.Now() <= window_end) ++r.responses_in_window;
      }
      client->Run([&] { next_get(); });
    });
    g.conn->SetOnEstablished([&, id] { gets[id - 1].http->Get("/page"); });
  };
  client->Run([&] { next_get(); });
  setup.reset();

  ctx.RunFor(sim, window_end - sim.Now());
  ctx.RunFor(sim, sim::Duration::Seconds(60));  // drain backlog, finish GETs, 2MSL
  r.offered = due.size();
  ctx.Frames(r.offered);
  ctx.CollectSim(sim);
  ctx.CollectHost(server->host);
  ctx.CollectHost(*client);
  ctx.CollectHost(*gen_host);
  ctx.Gate(r.corrupt == 0, "every echo that returns is exact");
  ctx.Gate(server->host.tcp().demux().connection_count() == 0 &&
               client->tcp().demux().connection_count() == 0,
           "every HTTP connection is reaped after the drain");
  gets.clear();
  http_conns.clear();
  return r;
}

}  // namespace

void UdpFlood(Context& ctx) {
  const double capacity = CalibrateCapacity(ctx);
  ctx.Virt("capacity_pps", capacity);
  if (capacity <= 0) {
    ctx.Gate(false, "capacity calibration");
    return;
  }
  double slo_rate = 0;
  std::uint64_t point = 0;
  std::int64_t lateness = 0;
  for (const double m : kLadder) {
    const sim::Duration window = m == kLatencyPoint ? kLatencyWindow : kWindow;
    const PointResult r = RunPoint(ctx, m * capacity, window, point++);
    lateness = std::max(lateness, r.lateness_ns);
    const std::uint64_t legit = m <= 1.0 ? r.offered : 0;
    const std::uint64_t legit_failed = m <= 1.0 ? r.offered - std::min(r.offered, r.echoed) : 0;
    ctx.Operations(legit + r.gets, legit_failed + (r.gets - r.gets_ok));
    const double p99 = Percentile(r.rtt_ns, 0.99);
    if (r.echoed == r.offered && p99 <= static_cast<double>(kSloLimit.ns())) {
      slo_rate = std::max(slo_rate, static_cast<double>(r.offered) / window.seconds());
    }
    const std::string tag = "point." + std::to_string(m) + "x.";
    ctx.Virt(tag + "offered_pps", static_cast<double>(r.offered) / window.seconds(), r.offered);
    ctx.Virt(tag + "goodput_pps", static_cast<double>(r.echoed_in_window) / window.seconds(),
             r.echoed_in_window);
    ctx.Virt(tag + "echo_p99_us", p99 / 1e3, r.rtt_ns.size());
    ctx.Virt(tag + "loss_ratio", 1.0 - static_cast<double>(r.echoed) / static_cast<double>(r.offered),
             r.offered);
    ctx.Virt(tag + "http_responses", static_cast<double>(r.responses_in_window), r.gets);
    if (m == kLatencyPoint) {
      ctx.Virt("sim_latency_p50_us", Percentile(r.rtt_ns, 0.50) / 1e3, r.rtt_ns.size());
      ctx.Virt("sim_latency_p99_us", p99 / 1e3, r.rtt_ns.size());
    }
    if (m == kLadder[std::size(kLadder) - 1]) {
      const double pps = static_cast<double>(r.echoed_in_window) / window.seconds();
      ctx.Virt("sim_goodput_pps", pps, r.echoed_in_window);
      ctx.Virt("sim_goodput_mbps", pps * kPayloadBytes * 8 / 1e6, r.echoed_in_window);
      ctx.Virt("sim_http_rps", static_cast<double>(r.responses_in_window) / window.seconds(),
               r.responses_in_window);
    }
  }
  ctx.Virt("slo_rate_pps", slo_rate);
  ctx.Virt("generator_lateness_us", static_cast<double>(lateness) / 1e3);
  ctx.Gate(sim::SlabRegistry::InUse("mbuf") == 0, "SlabRegistry::InUse(\"mbuf\") reads 0 after the drain");
}

}  // namespace perfbench
