#include "bench/bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "app/forwarder.h"
#include "app/video.h"
#include "drivers/medium.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "sim/batch.h"
#include "sim/tracer.h"

namespace bench {

namespace {

// Arms the tracer before the run when the caller asked for it.
void BeginCapture(sim::Simulator& sim, RunObservability* obs) {
  if (obs != nullptr && obs->enable_tracing) sim.tracer().SetEnabled(true);
}

// Collects the per-host metrics snapshots and the tracer's ledgers after
// the run. Hosts are labeled "a" (client/sender) and "b" (server/receiver).
void EndCapture(sim::Simulator& sim, sim::Host& a, sim::Host& b, RunObservability* obs) {
  if (obs == nullptr) return;
  obs->metrics_json =
      "{\"a\":" + a.metrics().ToJson() + ",\"b\":" + b.metrics().ToJson() + "}";
  obs->charge_breakdown_json = sim.tracer().ExportChargeBreakdownJson();
  if (obs->enable_tracing) obs->chrome_trace_json = sim.tracer().ExportChromeJson();
}

core::PlexusHost::NetConfig PNet(int id) {
  return {net::MacAddress::FromId(static_cast<std::uint32_t>(id)),
          net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)), 24};
}
os::SocketHost::NetConfig ONet(int id) {
  return {net::MacAddress::FromId(static_cast<std::uint32_t>(id)),
          net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)), 24};
}

// Media selection mirrors the testbed: Ethernet is a shared segment, ATM
// goes through the ForeRunner switch, T3 is back-to-back — both of the
// latter are point-to-point here.
std::unique_ptr<drivers::Medium> MakeMedium(sim::Simulator& sim,
                                            const drivers::DeviceProfile& profile) {
  if (profile.name.rfind("ethernet", 0) == 0) {
    return std::make_unique<drivers::EthernetSegment>(sim);
  }
  return std::make_unique<drivers::PointToPointLink>(sim);
}

proto::TcpConfig TcpConfigFor(const drivers::DeviceProfile& profile) {
  proto::TcpConfig cfg;
  cfg.mss = profile.mtu - 40;
  cfg.send_buffer = 64 * 1024;
  cfg.recv_window = 48 * 1024;
  return cfg;
}

}  // namespace

double PlexusUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                      core::HandlerMode mode, std::size_t payload, int pings,
                      RunObservability* obs) {
  sim::Simulator sim;
  BeginCapture(sim, obs);
  auto medium = MakeMedium(sim, profile);
  core::PlexusHost a(sim, "a", costs, profile, PNet(1), mode, 11);
  core::PlexusHost b(sim, "b", costs, profile, PNet(2), mode, 22);
  a.AttachTo(*medium);
  b.AttachTo(*medium);
  a.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  b.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);

  auto client = a.udp().CreateEndpoint(5000).value();
  auto server = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  server->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        server->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);

  double total_us = 0;
  int completed = 0;
  sim::TimePoint sent_at;
  std::vector<std::byte> msg(payload);
  std::function<void()> send_ping = [&] {
    a.Run([&] {
      sent_at = sim.Now();
      client->Send(net::Mbuf::FromBytes(msg), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        // Skip the first ping: it pays the ARP exchange.
        if (completed > 0) total_us += (sim.Now() - sent_at).us();
        if (++completed < pings + 1) send_ping();
      },
      opts);
  send_ping();
  sim.RunFor(sim::Duration::Seconds(30));
  EndCapture(sim, a.host(), b.host(), obs);
  return completed > 1 ? total_us / (completed - 1) : -1.0;
}

double OsUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                  std::size_t payload, int pings, RunObservability* obs) {
  sim::Simulator sim;
  BeginCapture(sim, obs);
  auto medium = MakeMedium(sim, profile);
  os::SocketHost a(sim, "a", costs, profile, ONet(1), 11);
  os::SocketHost b(sim, "b", costs, profile, ONet(2), 22);
  a.AttachTo(*medium);
  b.AttachTo(*medium);
  a.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  b.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);

  os::UdpSocket client(a, 5000);
  os::UdpSocket server(b, 7);
  server.SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram& info) {
    server.SendTo(std::span<const std::byte>(data), info.src_ip, info.src_port);
  });

  double total_us = 0;
  int completed = 0;
  sim::TimePoint sent_at;
  std::vector<std::byte> msg(payload);
  std::function<void()> send_ping = [&] {
    a.RunUser([&] {
      sent_at = sim.Now();
      client.SendTo(msg, net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  client.SetOnDatagram([&](std::vector<std::byte>, const proto::UdpDatagram&) {
    if (completed > 0) total_us += (sim.Now() - sent_at).us();
    if (++completed < pings + 1) send_ping();
  });
  send_ping();
  sim.RunFor(sim::Duration::Seconds(30));
  EndCapture(sim, a.host(), b.host(), obs);
  return completed > 1 ? total_us / (completed - 1) : -1.0;
}

double DriverUdpRttUs(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                      std::size_t payload, int pings) {
  sim::Simulator sim;
  auto medium = MakeMedium(sim, profile);
  sim::Host ha(sim, "a", costs, 11);
  sim::Host hb(sim, "b", costs, 22);
  drivers::Nic na(ha, profile, net::MacAddress::FromId(1));
  drivers::Nic nb(hb, profile, net::MacAddress::FromId(2));
  na.AttachMedium(medium.get());
  nb.AttachMedium(medium.get());
  na.set_promiscuous(true);
  nb.set_promiscuous(true);

  // Echo in the receive interrupt, no protocol processing at all.
  nb.SetReceiveCallback([&](net::MbufPtr frame) { nb.Transmit(std::move(frame)); });

  double total_us = 0;
  int completed = 0;
  sim::TimePoint sent_at;
  // Frame size mirrors the UDP experiment: payload + 42 bytes of headers.
  const std::size_t frame_len = payload + 42;
  std::function<void()> send_ping = [&] {
    ha.Submit(sim::Priority::kKernel, [&] {
      sent_at = sim.Now();
      na.Transmit(net::Mbuf::Allocate(frame_len));
    });
  };
  na.SetReceiveCallback([&](net::MbufPtr) {
    total_us += (sim.Now() - sent_at).us();
    if (++completed < pings) send_ping();
  });
  send_ping();
  sim.RunFor(sim::Duration::Seconds(30));
  return completed > 0 ? total_us / completed : -1.0;
}

namespace {

// Measures a one-way bulk TCP transfer: returns Mb/s from first to last
// delivered payload byte.
template <typename SetupFn>
double MeasureTcpTransfer(std::size_t transfer_bytes, sim::Simulator& sim, SetupFn&& setup) {
  sim::TimePoint first_byte_at, last_byte_at;
  std::size_t received = 0;
  bool started = false;

  auto on_data = [&](std::span<const std::byte> d) {
    if (!started) {
      started = true;
      first_byte_at = sim.Now();
    }
    received += d.size();
    last_byte_at = sim.Now();
  };
  setup(on_data);
  sim.RunFor(sim::Duration::Seconds(600));
  if (received < transfer_bytes || last_byte_at <= first_byte_at) return -1.0;
  const double secs = (last_byte_at - first_byte_at).seconds();
  return static_cast<double>(received) * 8.0 / secs / 1e6;
}

}  // namespace

double PlexusTcpThroughputMbps(const drivers::DeviceProfile& profile,
                               const sim::CostModel& costs, std::size_t transfer_bytes,
                               RunObservability* obs) {
  sim::Simulator sim;
  BeginCapture(sim, obs);
  auto medium = MakeMedium(sim, profile);
  core::PlexusHost a(sim, "a", costs, profile, PNet(1), core::HandlerMode::kInterrupt, 11);
  core::PlexusHost b(sim, "b", costs, profile, PNet(2), core::HandlerMode::kInterrupt, 22);
  a.AttachTo(*medium);
  b.AttachTo(*medium);
  a.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  b.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  a.tcp().set_config(TcpConfigFor(profile));
  b.tcp().set_config(TcpConfigFor(profile));

  std::shared_ptr<core::PlexusTcpEndpoint> sender;
  std::vector<std::byte> chunk(32 * 1024);
  std::size_t queued = 0;
  std::function<void()> pump;  // function scope: callbacks reference it later

  const double mbps = MeasureTcpTransfer(transfer_bytes, sim, [&](auto on_data) {
    b.tcp().Listen(5001, [on_data](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      ep->SetOnData(on_data);
    });
    pump = [&, transfer_bytes] {
      while (queued < transfer_bytes) {
        const std::size_t n = std::min(chunk.size(), transfer_bytes - queued);
        const std::size_t took =
            sender->connection().Send(std::span<const std::byte>(chunk.data(), n));
        queued += took;
        if (took < n) break;
      }
      if (queued < transfer_bytes) {
        sim.Schedule(sim::Duration::Millis(5), [&] { a.Run([&] { pump(); }); });
      }
    };
    a.Run([&] {
      sender = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 5001);
      sender->SetOnEstablished([&] { pump(); });
    });
  });
  EndCapture(sim, a.host(), b.host(), obs);
  return mbps;
}

double OsTcpThroughputMbps(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                           std::size_t transfer_bytes, RunObservability* obs) {
  sim::Simulator sim;
  BeginCapture(sim, obs);
  auto medium = MakeMedium(sim, profile);
  os::SocketHost a(sim, "a", costs, profile, ONet(1), 11);
  os::SocketHost b(sim, "b", costs, profile, ONet(2), 22);
  a.AttachTo(*medium);
  b.AttachTo(*medium);
  a.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  b.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  a.tcp_config() = TcpConfigFor(profile);
  b.tcp_config() = TcpConfigFor(profile);

  std::shared_ptr<os::TcpSocket> sender;
  std::shared_ptr<os::TcpSocket> receiver;
  std::unique_ptr<os::TcpListener> listener;
  std::vector<std::byte> chunk(32 * 1024);
  std::size_t queued = 0;
  std::function<void()> pump;  // function scope: callbacks reference it later

  const double mbps = MeasureTcpTransfer(transfer_bytes, sim, [&](auto on_data) {
    listener = std::make_unique<os::TcpListener>(
        b, 5001, [&receiver, on_data](std::shared_ptr<os::TcpSocket> s) {
          receiver = s;
          s->SetOnData(on_data);
        });
    sender = os::TcpSocket::Connect(a, net::Ipv4Address(10, 0, 0, 2), 5001);
    pump = [&, transfer_bytes] {
      while (queued < transfer_bytes) {
        const std::size_t n = std::min(chunk.size(), transfer_bytes - queued);
        // write(2) accepts everything into the user-side buffer; pace by the
        // kernel buffer instead so memory stays bounded.
        if (sender->connection().send_queue_bytes() > 48 * 1024) break;
        sender->Write(std::span<const std::byte>(chunk.data(), n));
        queued += n;
      }
      if (queued < transfer_bytes) {
        sim.Schedule(sim::Duration::Millis(5), [&] { pump(); });
      }
    };
    sender->SetOnEstablished([&] { pump(); });
  });
  EndCapture(sim, a.host(), b.host(), obs);
  return mbps;
}

double DriverThroughputMbps(const drivers::DeviceProfile& profile, const sim::CostModel& costs,
                            std::size_t transfer_bytes) {
  sim::Simulator sim;
  auto medium = MakeMedium(sim, profile);
  sim::Host ha(sim, "a", costs, 11);
  sim::Host hb(sim, "b", costs, 22);
  drivers::Nic na(ha, profile, net::MacAddress::FromId(1));
  drivers::Nic nb(hb, profile, net::MacAddress::FromId(2));
  na.AttachMedium(medium.get());
  nb.AttachMedium(medium.get());
  na.set_promiscuous(true);
  nb.set_promiscuous(true);

  const std::size_t frame_len = profile.mtu;
  std::size_t sent = 0;
  sim::TimePoint first_at, last_at;
  std::size_t received = 0;
  bool started = false;
  nb.SetReceiveCallback([&](net::MbufPtr frame) {
    if (!started) {
      started = true;
      first_at = sim.Now();
    }
    received += frame->PacketLength();
    last_at = sim.Now();
  });

  std::function<void()> send_next = [&] {
    if (sent >= transfer_bytes) return;
    ha.Submit(sim::Priority::kKernel, [&] {
      na.Transmit(net::Mbuf::Allocate(frame_len));
      sent += frame_len;
      ha.AfterTask(send_next);  // back-to-back: next frame when CPU is free
    });
  };
  send_next();
  sim.RunFor(sim::Duration::Seconds(120));
  if (received == 0 || last_at <= first_at) return -1.0;
  return static_cast<double>(received) * 8.0 / (last_at - first_at).seconds() / 1e6;
}

VideoCpuPoint VideoServerCpu(bool plexus, int streams, const sim::CostModel& costs) {
  sim::Simulator sim;
  drivers::PointToPointLink link(sim);
  const auto profile = drivers::DeviceProfile::DecT3();
  app::VideoConfig config;

  core::PlexusHost sink_host(sim, "sink", costs, profile, PNet(2), core::HandlerMode::kInterrupt,
                             99);
  sink_host.AttachTo(link);
  sink_host.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  std::vector<std::unique_ptr<app::VideoSink>> sinks;

  std::unique_ptr<core::PlexusHost> pserver;
  std::unique_ptr<os::SocketHost> dserver;
  std::unique_ptr<app::PlexusVideoServer> pvideo;
  std::unique_ptr<app::DuVideoServer> dvideo;
  if (plexus) {
    pserver = std::make_unique<core::PlexusHost>(sim, "server", costs, profile, PNet(1),
                                                 core::HandlerMode::kInterrupt, 1);
    pserver->AttachTo(link);
    pserver->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    pvideo = std::make_unique<app::PlexusVideoServer>(*pserver, config);
  } else {
    dserver = std::make_unique<os::SocketHost>(sim, "server", costs, profile, ONet(1), 1);
    dserver->AttachTo(link);
    dserver->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    dvideo = std::make_unique<app::DuVideoServer>(*dserver, config);
  }

  for (int i = 0; i < streams; ++i) {
    const auto port = static_cast<std::uint16_t>(config.base_client_port + i);
    sinks.push_back(std::make_unique<app::VideoSink>(sink_host, port));
    app::VideoClientAddr addr{net::Ipv4Address(10, 0, 0, 2), port};
    if (pvideo) {
      pvideo->AddClient(addr);
    } else {
      dvideo->AddClient(addr);
    }
  }

  sim::Host& host = pvideo ? pserver->host() : dserver->host();
  if (pvideo) pvideo->Start();
  if (dvideo) dvideo->Start();
  sim.RunFor(sim::Duration::Millis(200));  // warm up (ARP)
  const sim::Duration before = host.cpu().busy_total();
  sim.RunFor(sim::Duration::Seconds(1));
  const sim::Duration busy = host.cpu().busy_total() - before;

  const double offered_bps = static_cast<double>(streams) * config.frames_per_second *
                             static_cast<double>(config.frame_bytes) * 8.0;
  VideoCpuPoint point;
  point.streams = streams;
  point.utilization = sim::Cpu::Utilization(busy, sim::Duration::Seconds(1));
  point.net_saturated = offered_bps >= static_cast<double>(profile.bandwidth_bps);
  return point;
}

ForwardingResult PlexusForwarding(const sim::CostModel& costs) {
  sim::Simulator sim;
  drivers::EthernetSegment segment(sim);
  const auto profile = drivers::DeviceProfile::Ethernet10();
  core::PlexusHost client(sim, "client", costs, profile, PNet(1));
  core::PlexusHost fwd(sim, "fwd", costs, profile, PNet(2));
  core::PlexusHost backend(sim, "backend", costs, profile, PNet(3));
  for (core::PlexusHost* h : {&client, &fwd, &backend}) {
    h->AttachTo(segment);
    h->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  }
  // Warm ARP caches: Figure 7 measures forwarding latency, not neighbor
  // discovery.
  core::PlexusHost* hosts[] = {&client, &fwd, &backend};
  for (auto* h : hosts) {
    for (int id = 1; id <= 3; ++id) {
      h->arp().AddStatic(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)),
                         net::MacAddress::FromId(static_cast<std::uint32_t>(id)));
    }
  }
  app::PlexusTcpForwarder forwarder(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);
  backend.tcp().Listen(80, [](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    ep->SetOnData([ep](std::span<const std::byte> d) { ep->Write(d); });
  });

  ForwardingResult result{-1, -1, -1};
  sim::TimePoint connect_start, send_at;
  double rtt_total = 0;
  int rtts = 0;
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  std::function<void()> send_req = [&] {
    client.Run([&] {
      send_at = sim.Now();
      conn->WriteString("XXXXXXXX");
    });
  };
  client.Run([&] {
    connect_start = sim.Now();
    conn = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 8080);
    conn->SetOnEstablished([&] {
      result.connect_us = (sim.Now() - connect_start).us();
      send_req();
    });
    conn->SetOnData([&](std::span<const std::byte>) {
      if (rtts == 0) result.first_response_us = (sim.Now() - connect_start).us();
      rtt_total += (sim.Now() - send_at).us();
      if (++rtts < 16) send_req();
    });
  });
  sim.RunFor(sim::Duration::Seconds(60));
  if (rtts > 0) result.request_rtt_us = rtt_total / rtts;
  return result;
}

ForwardingResult DuForwarding(const sim::CostModel& costs) {
  sim::Simulator sim;
  drivers::EthernetSegment segment(sim);
  const auto profile = drivers::DeviceProfile::Ethernet10();
  os::SocketHost client(sim, "client", costs, profile, ONet(1));
  os::SocketHost fwd(sim, "fwd", costs, profile, ONet(2));
  os::SocketHost backend(sim, "backend", costs, profile, ONet(3));
  for (os::SocketHost* h : {&client, &fwd, &backend}) {
    h->AttachTo(segment);
    h->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  }
  os::SocketHost* hosts[] = {&client, &fwd, &backend};
  for (auto* h : hosts) {
    for (int id = 1; id <= 3; ++id) {
      h->arp().AddStatic(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id)),
                         net::MacAddress::FromId(static_cast<std::uint32_t>(id)));
    }
  }
  app::DuTcpSplicer splicer(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);
  std::shared_ptr<os::TcpSocket> backend_keep;
  os::TcpListener backend_listener(backend, 80, [&](std::shared_ptr<os::TcpSocket> s) {
    backend_keep = s;
    s->SetOnData([sp = s.get()](std::span<const std::byte> d) { sp->Write(d); });
  });

  ForwardingResult result{-1, -1, -1};
  sim::TimePoint connect_start = sim.Now(), send_at;
  double rtt_total = 0;
  int rtts = 0;
  auto conn = os::TcpSocket::Connect(client, net::Ipv4Address(10, 0, 0, 2), 8080);
  std::function<void()> send_req = [&] {
    client.RunUser([&] {
      send_at = sim.Now();
      conn->WriteString("XXXXXXXX");
    });
  };
  conn->SetOnEstablished([&] {
    result.connect_us = (sim.Now() - connect_start).us();
    send_req();
  });
  conn->SetOnData([&](std::span<const std::byte>) {
    if (rtts == 0) result.first_response_us = (sim.Now() - connect_start).us();
    rtt_total += (sim.Now() - send_at).us();
    if (++rtts < 16) send_req();
  });
  sim.RunFor(sim::Duration::Seconds(60));
  if (rtts > 0) result.request_rtt_us = rtt_total / rtts;
  return result;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// Fixed three-decimal rendering so the JSON is byte-stable across runs.
std::string FormatMeasured(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

namespace {

// Host provenance for the meta block. Not part of any comparison — purely
// "where did these numbers come from" context on a checked-in baseline.
std::string HostMetaJson() {
  std::ostringstream out;
  out << "{\"cpus\":" << std::thread::hardware_concurrency();
#if defined(__unix__) || defined(__APPLE__)
  utsname u{};
  if (uname(&u) == 0) {
    out << ",\"os\":" << JsonQuote(u.sysname)
        << ",\"release\":" << JsonQuote(u.release)
        << ",\"machine\":" << JsonQuote(u.machine);
  }
#endif
  out << '}';
  return out.str();
}

}  // namespace

std::string JsonReporter::ToJson() const {
  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  const char* sha = std::getenv("PLEXUS_GIT_SHA");
  std::ostringstream out;
  out << "{\"schema\":\"plexus-bench-v1\",\"meta\":{\"wall_seconds\":"
      << FormatMeasured(wall_seconds)
      << ",\"host\":" << HostMetaJson()
      << ",\"git_sha\":" << JsonQuote(sha != nullptr ? sha : "unknown")
      << ",\"engine\":" << JsonQuote(sim::BatchConfig::enabled() ? "batched" : "per-packet")
      << "},\"records\":[";
  bool first_record = true;
  for (const BenchRecord& r : records_) {
    if (!first_record) out << ',';
    first_record = false;
    out << "{\"experiment\":" << JsonQuote(r.experiment)
        << ",\"device\":" << JsonQuote(r.device)
        << ",\"system\":" << JsonQuote(r.system)
        << ",\"metric\":" << JsonQuote(r.metric)
        << ",\"unit\":" << JsonQuote(r.unit)
        << ",\"measured\":" << FormatMeasured(r.measured)
        << ",\"paper_expected\":" << JsonQuote(r.paper_expected);
    // Captured blobs are already JSON; embed them verbatim.
    if (!r.metrics_json.empty()) out << ",\"metrics\":" << r.metrics_json;
    if (!r.charge_breakdown_json.empty()) {
      out << ",\"charge_breakdown\":" << r.charge_breakdown_json;
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

bool JsonReporter::WriteTo(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << ToJson() << '\n';
  return static_cast<bool>(f);
}

void ShapeVerdicts::Check(const std::string& where, const std::string& claim, bool holds) {
  std::printf("  shape: %s: %s\n", claim.c_str(), holds ? "HOLDS" : "VIOLATED");
  if (!holds) violated_.push_back(where + ": " + claim);
}

int ShapeVerdicts::ExitCode() const {
  for (const std::string& v : violated_) std::fprintf(stderr, "shape VIOLATED: %s\n", v.c_str());
  return violated_.empty() ? 0 : 1;
}

std::string ArgAfter(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return "";
}

}  // namespace bench
