// conn_churn: an open loop of short HTTP connections over lossy Ethernet.
//
// Connects are due at a fixed spacing in virtual time. Each one does
// connect, HTTP GET of a 512-byte body, and close, over a 10 Mb/s segment
// that drops 0.5% of frames, so RTO and delayed-ACK timers really arm, fire
// and cancel. Every close parks a 2MSL timer, so by the end of the loop over
// ten thousand connections are open (most in TIME_WAIT): timers, the TCP
// demux and per-connection state do the work; payload bytes are
// negligible. Latency runs from a connect's due time to its HTTP 200.
// Open connections are counted at the server, where TIME_WAIT lands.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "drivers/medium.h"
#include "perfbench/cpp/harness.h"
#include "proto/http.h"
#include "sim/slab.h"

namespace perfbench {

namespace {

constexpr int kConnections = 12000;
constexpr std::size_t kBodyBytes = 512;
constexpr double kLoss = 0.005;
// Below the segment's service rate (about 1.3 ms of wire and CPU per
// connection), so latency measures service and loss recovery, not a queue
// that grows for the whole run.
constexpr sim::Duration kSpacing = sim::Duration::Micros(2000);

const net::Ipv4Address kServerIp(10, 0, 0, 1);
const net::Ipv4Address kClientIp(10, 0, 0, 2);

// The body served for request i: kBodyBytes lowercase letters from the
// seed's stream, regenerated independently by the client to check it.
std::string BodyFor(std::uint64_t seed, std::uint64_t i) {
  std::string body(kBodyBytes, '\0');
  for (std::size_t k = 0; k < kBodyBytes; k += 8) {
    const std::uint64_t w = Mix(seed, 2, i * (kBodyBytes / 8) + k / 8);
    for (std::size_t b = 0; b < 8; ++b) {
      body[k + b] = static_cast<char>('a' + ((w >> (8 * b)) & 0xff) % 26);
    }
  }
  return body;
}

}  // namespace

void ConnChurn(Context& ctx) {
  const std::uint64_t seed = ctx.seed();
  sim::Simulator sim;
  ctx.Prepare(sim);
  std::optional<Context::SetupPhase> setup(ctx);

  drivers::EthernetSegment segment(sim, Mix(seed, 1, 0));
  drivers::Faults faults;
  faults.drop_probability = kLoss;
  segment.set_faults(faults);

  const auto costs = sim::CostModel::Default1996();
  const auto profile = drivers::DeviceProfile::Ethernet10();
  std::optional<core::PlexusHost> server;
  std::optional<core::PlexusHost> client;
  std::vector<std::unique_ptr<proto::HttpServerConnection>> server_conns;
  {
    SpanLog::Scope span("core.setup");
    server.emplace(sim, "server", costs, profile,
                   core::PlexusHost::NetConfig{net::MacAddress::FromId(1), kServerIp, 24},
                   core::HandlerMode::kInterrupt, Mix(seed, 1, 1));
    client.emplace(sim, "client", costs, profile,
                   core::PlexusHost::NetConfig{net::MacAddress::FromId(2), kClientIp, 24},
                   core::HandlerMode::kInterrupt, Mix(seed, 1, 2));
    server->AttachTo(segment);
    client->AttachTo(segment);
    server->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    client->ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    server->arp().AddStatic(kClientIp, net::MacAddress::FromId(2));
    client->arp().AddStatic(kServerIp, net::MacAddress::FromId(1));
    server->tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      server_conns.push_back(std::make_unique<proto::HttpServerConnection>(
          *ep, [&](const std::string& path) -> std::optional<std::string> {
            const std::uint64_t i = std::stoull(path.substr(1));
            SpanLog::Scope app("app.handler", i + 1);
            sim::TraceSpan trace(server->host(), "app.http_serve", "app");
            server->host().Charge(server->host().costs().http_parse);
            return BodyFor(seed, i);
          }));
    });
  }

  struct Conn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    std::unique_ptr<proto::HttpClient> http;
  };
  std::vector<Conn> conns(kConnections);
  std::vector<std::int64_t> latency_ns;
  latency_ns.reserve(kConnections);
  int finished = 0;
  int ok = 0;
  int ok_in_loop = 0;  // answered before the last connect fell due
  const sim::TimePoint loop_end = sim::TimePoint::FromNanos(0) + kSpacing * (kConnections - 1);
  std::size_t open_peak = 0;
  sim::TimePoint last_response;
  for (int i = 0; i < kConnections; ++i) {
    const sim::Duration due = kSpacing * i;
    sim.Schedule(due, [&, i, due] {
      client->Run([&, i, due] {
        const auto id = static_cast<std::uint64_t>(i);
        Conn& c = conns[static_cast<std::size_t>(i)];
        {
          SpanLog::Scope span("core.connect", id + 1);
          c.ep = client->tcp().Connect(kServerIp, 80);
        }
        c.http = std::make_unique<proto::HttpClient>(
            *c.ep, [&, id, due](const proto::HttpClient::Response& r) {
              SpanLog::Scope app("app.handler", id + 1);
              conns[id].ep->CloseStream();
              ++finished;
              if (r.status == 200 && r.body == BodyFor(seed, id)) {
                ++ok;
                if (sim.Now() <= loop_end) ++ok_in_loop;
                last_response = sim.Now();
                latency_ns.push_back((sim.Now() - sim::TimePoint::FromNanos(0) - due).ns());
              }
            });
        c.ep->SetOnEstablished([&c, id] {
          SpanLog::Scope app("app.handler", id + 1);
          std::string path = "/";
          path += std::to_string(id);
          c.http->Get(path);
        });
        open_peak = std::max(open_peak, server->tcp().demux().connection_count());
      });
    });
  }
  setup.reset();

  ctx.RunFor(sim, kSpacing * kConnections);
  const sim::TimePoint cap = sim.Now() + sim::Duration::Seconds(600);
  while (finished < kConnections && sim.Now() < cap) ctx.RunFor(sim, sim::Duration::Seconds(1));
  // Drain: every TIME_WAIT (2MSL) expires and every buffer comes home.
  ctx.RunFor(sim, sim::Duration::Seconds(40));

  ctx.Operations(kConnections, static_cast<std::uint64_t>(kConnections - ok));
  ctx.Gate(ok == kConnections, "every HTTP body arrives exact (" + std::to_string(ok) + "/" +
                                   std::to_string(kConnections) + ")");
  ctx.Gate(client->tcp().demux().connection_count() == 0 &&
               server->tcp().demux().connection_count() == 0,
           "every connection is reaped after 2MSL");
  const double span_s = (last_response - sim::TimePoint::FromNanos(0)).seconds();
  ctx.Virt("sim_latency_p50_us", Percentile(latency_ns, 0.50) / 1e3, latency_ns.size());
  ctx.Virt("sim_latency_p99_us", Percentile(latency_ns, 0.99) / 1e3, latency_ns.size());
  // Body bytes answered while the open loop ran, per second of the loop.
  ctx.Virt("sim_goodput_mbps",
           static_cast<double>(ok_in_loop) * kBodyBytes * 8.0 /
               (loop_end - sim::TimePoint::FromNanos(0)).seconds() / 1e6,
           ok_in_loop);
  ctx.Virt("sim_ns_per_conn", static_cast<double>((last_response - sim::TimePoint::FromNanos(0)).ns()) /
                                  kConnections,
           kConnections);
  ctx.Virt("sim_http_rps", static_cast<double>(ok) / span_s, ok);
  ctx.Virt("conn_open_peak", static_cast<double>(open_peak));

  ctx.CollectSim(sim);
  ctx.CollectHost(*server);
  ctx.CollectHost(*client);
  // Teardown order: endpoints and HTTP state before the hosts they use.
  conns.clear();
  server_conns.clear();
  ctx.Gate(sim::SlabRegistry::InUse("mbuf") == 0, "SlabRegistry::InUse(\"mbuf\") reads 0 after the drain");
}

}  // namespace perfbench
