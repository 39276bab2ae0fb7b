#include "core/plexus.h"

#include <cassert>

#include <utility>

#include "net/view.h"
#include "proto/transport_checksum.h"
#include "sim/profiler.h"
#include "sim/tracer.h"

namespace core {

namespace {

// Default containment for application-installed handlers: fence exceptions
// at the dispatch boundary and quarantine after kDefaultMaxStrikes. A
// caller-provided max_strikes (or a negative "never quarantine") wins.
void ApplyAppFaultPolicy(spin::HandlerOptions& opts) {
  opts.fault.isolate = true;
  if (opts.fault.max_strikes == 0) opts.fault.max_strikes = kDefaultMaxStrikes;
}

}  // namespace

// --- EthernetManager ---------------------------------------------------------

EthernetManager::EthernetManager(PlexusHost& plexus, proto::EthLayer& eth)
    : plexus_(plexus), eth_(eth), packet_recv_("Ethernet.PacketRecv", &plexus.dispatcher()) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Guard compilation: Ethernet.PacketRecv demultiplexes on the EtherType.
  // The header is already parsed by the time the event is raised, so the
  // extractor is a field load, charged once per raise as a demux_lookup.
  packet_recv_.SetDemuxKey("eth.type",
                           [](const net::Mbuf&, const net::EthernetHeader& hdr) {
                             return std::optional<std::uint64_t>(hdr.type.value());
                           });
  eth_.SetUpcall([this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
    OnFrame(std::move(frame), hdr);
  });
}

// The driver-edge hop: the only sheddable raise in the graph (nothing has
// been invested in the frame yet beyond driver receive work).
void EthernetManager::OnFrame(net::MbufPtr frame, const net::EthernetHeader& hdr) {
  if (plexus_.batch_active()) {
    EnqueueBatched(std::move(frame), hdr);
    return;
  }
  // The hop's GraphFn is move-only, so the buffer rides in the capture as a
  // plain MbufPtr — no shared_ptr control-block allocation per frame.
  plexus_.GraphHop(
      [this, ref = std::move(frame), hdr] { packet_recv_.Raise(*ref, hdr); },
      /*sheddable=*/true);
}

void EthernetManager::EnqueueBatched(net::MbufPtr frame, const net::EthernetHeader& hdr) {
  if (pending_.empty()) {
    plexus_.AddBatchFlush([this](bool deliver) { FlushBatched(deliver); },
                          [this] { return pending_.size(); });
  }
  pending_.emplace_back(std::move(frame), hdr);
}

void EthernetManager::FlushBatched(bool deliver) {
  auto burst = std::move(pending_);
  pending_.clear();
  // Shed: the parked frames die here, before any graph work — the batch
  // analogue of refusing the frame's per-packet hop at Admit().
  if (!deliver) return;
  packet_recv_.RaiseBatch(burst, [](std::pair<net::MbufPtr, net::EthernetHeader>& p) {
    return std::forward_as_tuple(*p.first, p.second);
  });
}

spin::Result<spin::HandlerId> EthernetManager::InstallTypeHandler(
    std::uint16_t ethertype,
    std::function<void(const net::Mbuf&, const net::EthernetHeader&)> handler,
    spin::HandlerOptions opts) {
  // The manager builds the guard itself as a declarative predicate: the
  // handler can only see frames of its own EtherType — it cannot snoop on
  // other traffic — and the predicate's exact-match discriminator lets the
  // event index the handler instead of evaluating a guard per raise.
  const filter::Predicate predicate = filter::Predicate::EtherType(ethertype);
  const auto key = predicate.ExactMatchKey(filter::kEtherTypeField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  return packet_recv_.InstallKeyed(std::move(handler), *key, nullptr, std::move(opts));
}

spin::Result<spin::HandlerId> EthernetManager::InstallFilteredHandler(
    const filter::Predicate& predicate,
    std::function<void(const net::Mbuf&, const net::EthernetHeader&)> handler,
    spin::HandlerOptions opts) {
  // Inspection: an unconstrained filter would see every frame on the wire —
  // exactly the snooping the manager exists to prevent.
  if (predicate.OpCount() <= 1 && predicate.Eval(net::Mbuf::Allocate(64)->data()) &&
      predicate.Eval(net::Mbuf::Allocate(1500)->data())) {
    return spin::Errorf("InstallFilteredHandler: predicate '" + predicate.ToString() +
                        "' matches arbitrary traffic; raw access requires the kernel domain");
  }
  auto guard = [predicate](const net::Mbuf& frame, const net::EthernetHeader&) {
    return predicate.Eval(frame);
  };
  if (opts.name.empty()) opts.name = "filter:" + predicate.ToString();
  ApplyAppFaultPolicy(opts);
  // A filter that pins the EtherType goes behind the demux index; the full
  // predicate stays on as the verify guard for the remaining constraints.
  // Filters without a necessary EtherType constraint fall back to the
  // residual linear path.
  if (const auto key = predicate.ExactMatchKey(filter::kEtherTypeField)) {
    return packet_recv_.InstallKeyed(std::move(handler), *key, std::move(guard),
                                     std::move(opts));
  }
  return packet_recv_.Install(std::move(handler), std::move(guard), std::move(opts));
}

bool EthernetManager::Uninstall(spin::HandlerId id) { return packet_recv_.Uninstall(id); }

void EthernetManager::Output(net::MbufPtr payload, net::MacAddress dst,
                             std::uint16_t ethertype) {
  // EthLayer::Output always writes this NIC's MAC as the source — spoof
  // prevention by overwriting the source field.
  eth_.Output(std::move(payload), dst, ethertype);
}

// --- IpManager ---------------------------------------------------------------

IpManager::IpManager(PlexusHost& plexus, proto::Ipv4Layer& ip, proto::ArpService& arp)
    : plexus_(plexus), ip_(ip), arp_(arp), packet_recv_("Ip.PacketRecv", &plexus.dispatcher()) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Ip.PacketRecv demultiplexes on the IP protocol number.
  packet_recv_.SetDemuxKey("ip.protocol", [](const net::Mbuf&, const net::Ipv4Header& hdr) {
    return std::optional<std::uint64_t>(hdr.protocol);
  });
}

void IpManager::Output(net::MbufPtr payload, net::Ipv4Address dst, std::uint8_t protocol,
                       net::Ipv4Address src_override) {
  ip_.Output(std::move(payload), src_override, dst, protocol);
}

spin::Result<spin::HandlerId> IpManager::InstallProtocolHandler(
    std::uint8_t protocol,
    std::function<void(const net::Mbuf&, const net::Ipv4Header&)> handler,
    spin::HandlerOptions opts) {
  if (protocol == net::ipproto::kIcmp || protocol == net::ipproto::kTcp ||
      protocol == net::ipproto::kUdp) {
    return spin::Errorf("InstallProtocolHandler: protocol " + std::to_string(protocol) +
                        " is owned by a kernel manager");
  }
  // Declarative guard: the IpProtocol predicate's discriminator indexes the
  // handler — the handler sees only its own protocol's packets, and the
  // raise path never evaluates a guard for it.
  const filter::Predicate predicate = filter::Predicate::IpProtocol(protocol);
  const auto key = predicate.ExactMatchKey(filter::kIpProtocolField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  return packet_recv_.InstallKeyed(std::move(handler), *key, nullptr, std::move(opts));
}

bool IpManager::Uninstall(spin::HandlerId id) { return packet_recv_.Uninstall(id); }

void IpManager::EnqueueBatched(net::MbufPtr payload, const net::Ipv4Header& hdr) {
  if (pending_.empty()) {
    plexus_.AddBatchFlush([this](bool deliver) { FlushBatched(deliver); },
                          [this] { return pending_.size(); });
  }
  pending_.emplace_back(std::move(payload), hdr);
}

void IpManager::FlushBatched(bool deliver) {
  auto burst = std::move(pending_);
  pending_.clear();
  if (!deliver) return;
  packet_recv_.RaiseBatch(burst, [](std::pair<net::MbufPtr, net::Ipv4Header>& p) {
    return std::forward_as_tuple(*p.first, p.second);
  });
}

void IpManager::Reinject(net::MbufPtr packet, net::Ipv4Address dst) {
  auto route = ip_.routes().Lookup(dst);
  if (!route) return;
  const net::Ipv4Address next_hop = route->next_hop.IsAny() ? dst : route->next_hop;
  plexus_.TransmitIp(std::move(packet), next_hop, route->if_index);
}

// --- UdpEndpoint / UdpManager --------------------------------------------------

UdpEndpoint::~UdpEndpoint() {
  for (auto id : installed_) plexus_.udp().packet_recv().Uninstall(id);
  plexus_.udp().ReleasePort(port_);
}

void UdpEndpoint::Send(net::MbufPtr payload, net::Ipv4Address dst_ip, std::uint16_t dst_port) {
  // Anti-spoofing: the source address and port are the endpoint's own; the
  // application has no way to supply different ones.
  plexus_.udp().layer().Output(std::move(payload), net::Ipv4Address::Any(), port_, dst_ip,
                               dst_port, checksum_);
}

bool UdpEndpoint::SendVerified(net::MbufPtr udp_packet, net::Ipv4Address dst_ip) {
  net::UdpHeader hdr;
  try {
    hdr = net::ViewPacket<net::UdpHeader>(*udp_packet);
  } catch (const net::ViewError&) {
    return false;
  }
  if (hdr.src_port.value() != port_) {
    // The debugging strategy caught a spoofed source field.
    ++plexus_.udp().stats_.spoof_rejections;
    return false;
  }
  plexus_.ip().Output(std::move(udp_packet), dst_ip, net::ipproto::kUdp);
  return true;
}

spin::Result<spin::HandlerId> UdpEndpoint::InstallReceiveHandler(
    std::function<void(const net::Mbuf&, const proto::UdpDatagram&)> handler,
    spin::HandlerOptions opts) {
  // Anti-snooping: the manager supplies the guard as a declarative
  // dst-port predicate; only datagrams addressed to this endpoint's port
  // reach the handler, and the port value indexes it in the demux hash —
  // a thousand endpoints cost the same per raise as one.
  const filter::Predicate predicate = filter::Predicate::UdpDstPort(port_);
  const auto key = predicate.ExactMatchKey(filter::kUdpDstPortField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  // On quarantine the endpoint drops its claim on the (already
  // auto-uninstalled) handler before the application learns about it.
  opts.fault.on_quarantined = [this, user = std::move(opts.fault.on_quarantined)](
                                  spin::HandlerId id, const spin::HandlerStats& st) {
    std::erase(installed_, id);
    if (user) user(id, st);
  };
  auto r = plexus_.udp().packet_recv().InstallKeyed(std::move(handler), *key, nullptr,
                                                    std::move(opts));
  if (r.ok()) installed_.push_back(r.value());
  return r;
}

bool UdpEndpoint::UninstallReceiveHandler(spin::HandlerId id) {
  std::erase(installed_, id);
  return plexus_.udp().packet_recv().Uninstall(id);
}

UdpManager::UdpManager(PlexusHost& plexus, proto::UdpLayer& udp)
    : plexus_(plexus), udp_(udp), packet_recv_("Udp.PacketRecv", &plexus.dispatcher()) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Udp.PacketRecv demultiplexes on the destination port (already parsed).
  packet_recv_.SetDemuxKey("udp.dst_port",
                           [](const net::Mbuf&, const proto::UdpDatagram& info) {
                             return std::optional<std::uint64_t>(info.dst_port);
                           });
  udp_.SetDefaultReceiver([this](net::MbufPtr payload, const proto::UdpDatagram& info) {
    plexus_.GraphHop([this, ref = std::move(payload), info] {
      if (packet_recv_.Raise(*ref, info) == 0 && !info.dst_ip.IsBroadcast() &&
          !info.dst_ip.IsMulticast()) {
        // Nobody claimed the datagram: answer with ICMP port unreachable.
        ++stats_.unreachable_sent;
        net::Ipv4Header offending;
        offending.protocol = net::ipproto::kUdp;
        offending.src = info.src_ip;
        offending.dst = info.dst_ip;
        plexus_.icmp().SendError(offending, net::icmptype::kDestUnreachable, /*code=*/3);
      }
    });
  });
}

spin::Result<std::shared_ptr<UdpEndpoint>> UdpManager::CreateEndpoint(std::uint16_t local_port) {
  if (!ports_in_use_.insert(local_port).second) {
    return spin::Errorf("UDP port " + std::to_string(local_port) + " already claimed");
  }
  return std::shared_ptr<UdpEndpoint>(new UdpEndpoint(plexus_, local_port));
}

// --- PlexusTcpEndpoint / TcpManager --------------------------------------------

PlexusTcpEndpoint::PlexusTcpEndpoint(PlexusHost& plexus, proto::TcpEndpoints ep)
    : plexus_(plexus) {
  proto::TcpConnection::Callbacks cbs;
  cbs.send_segment = [this](net::MbufPtr segment, net::Ipv4Address src, net::Ipv4Address dst) {
    plexus_.ip().Output(std::move(segment), dst, net::ipproto::kTcp, src);
  };
  cbs.on_established = [this] {
    if (on_established_) on_established_();
  };
  cbs.on_data = [this](std::span<const std::byte> data) {
    if (on_data_) {
      on_data_(data);
    } else {
      pre_data_.insert(pre_data_.end(), data.begin(), data.end());
    }
  };
  cbs.on_send_ready = [this] { FlushPending(); };
  cbs.on_remote_close = [this] {
    // EOF from the peer: stream-level close (HTTP-style close-delimited
    // bodies rely on this).
    if (!close_delivered_) {
      close_delivered_ = true;
      if (on_close_) on_close_();
    }
  };
  cbs.on_closed = [this] {
    if (registered_) {
      plexus_.tcp().demux().Unregister(conn_->endpoints());
      registered_ = false;
    }
    if (!close_delivered_) {
      close_delivered_ = true;
      if (on_close_) on_close_();
    }
  };
  cbs.on_reset = [this](const std::string&) {
    // on_closed fires separately; nothing extra needed here.
  };
  cbs.on_error = [this](proto::TcpError err) {
    if (!on_error_) return;
    on_error_(err == proto::TcpError::kTimedOut ? proto::StreamError::kTimedOut
                                                : proto::StreamError::kReset);
  };
  conn_ = std::make_unique<proto::TcpConnection>(plexus_.host(), plexus_.tcp().config(), ep,
                                                 std::move(cbs));
}

void PlexusTcpEndpoint::Detach() {
  // The host under us lost power. No demux unregister (the demux is being
  // destroyed), no callbacks (dead machines don't notify their apps) — the
  // connection just vanishes, releasing its timers and buffers.
  registered_ = false;
  conn_->Vanish();
}

PlexusTcpEndpoint::~PlexusTcpEndpoint() {
  if (registered_) plexus_.tcp().demux().Unregister(conn_->endpoints());
}

std::size_t PlexusTcpEndpoint::Write(std::span<const std::byte> data) {
  pending_.insert(pending_.end(), data.begin(), data.end());
  FlushPending();
  return data.size();
}

void PlexusTcpEndpoint::FlushPending() {
  while (!pending_.empty()) {
    std::vector<std::byte> chunk(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(
                               std::min<std::size_t>(pending_.size(), 16 * 1024)));
    const std::size_t accepted = conn_->Send(chunk);
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(accepted));
    if (accepted < chunk.size()) break;
  }
  if (close_after_flush_ && pending_.empty()) {
    close_after_flush_ = false;
    conn_->Close();
  }
}

void PlexusTcpEndpoint::SetOnData(std::function<void(std::span<const std::byte>)> cb) {
  on_data_ = std::move(cb);
  if (on_data_ && !pre_data_.empty()) {
    std::vector<std::byte> stashed;
    stashed.swap(pre_data_);
    on_data_(stashed);
  }
}

void PlexusTcpEndpoint::SetOnClose(std::function<void()> cb) { on_close_ = std::move(cb); }

void PlexusTcpEndpoint::CloseStream() {
  if (pending_.empty()) {
    conn_->Close();
  } else {
    close_after_flush_ = true;
  }
}

TcpManager::TcpManager(PlexusHost& plexus, proto::TcpConfig config)
    : plexus_(plexus), config_(config), packet_recv_("Tcp.PacketRecv", &plexus.dispatcher()) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Tcp.PacketRecv demultiplexes on the segment's destination port, parsed
  // from the packet once per raise. A truncated segment yields nullopt:
  // only residual handlers are considered, matching the fail-closed guards.
  packet_recv_.SetDemuxKey(
      "tcp.dst_port",
      [](const net::Mbuf& segment, const net::Ipv4Header&) -> std::optional<std::uint64_t> {
        try {
          return net::ViewPacket<net::TcpHeader>(segment).dst_port.value();
        } catch (const net::ViewError&) {
          return std::nullopt;
        }
      });

  // The standard TCP implementation: handles every TCP segment except those
  // claimed by a special implementation ("the first uses a guard which
  // processes all TCP packets but those destined for the second").
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "tcp-standard";
  auto standard_guard = [this](const net::Mbuf& segment, const net::Ipv4Header&) {
    try {
      auto hdr = net::ViewPacket<net::TcpHeader>(segment);
      return !IsSpecialPort(hdr.dst_port.value());
    } catch (const net::ViewError&) {
      // A segment too short to hold a TCP header. The guard is the one
      // choke point both rx modes share (per-packet and batched/GRO), so
      // the malformed drop is attributed here, identically in both.
      if (tcp_malformed_ == nullptr) {
        tcp_malformed_ = &plexus_.host().metrics().counter("proto.tcp.malformed_drops");
      }
      tcp_malformed_->Inc();
      return false;
    }
  };
  // GRO sits between the standard implementation's dispatch and the demux:
  // inside a batch scope, in-order pure-data segments of one flow coalesce
  // into a single chain and the demux pays one tcp_input for the run. The
  // sink is the exact call the non-coalesced path makes.
  gro_ = std::make_unique<proto::GroEngine>(
      plexus.host(),
      [this](net::MbufPtr merged, net::Ipv4Address src, net::Ipv4Address dst) {
        demux_.Input(std::move(merged), src, dst);
      });
  auto standard_handler = [this](const net::Mbuf& segment, const net::Ipv4Header& ip_hdr) {
    if (gro_enabled_ && plexus_.batch_active() && sim::BatchConfig::enabled()) {
      gro_->Push(segment.ShareClone(), ip_hdr.src, ip_hdr.dst);
      return;
    }
    demux_.Input(segment.ShareClone(), ip_hdr.src, ip_hdr.dst);
  };
  auto r = packet_recv_.Install(standard_handler, standard_guard, opts);
  assert(r.ok());
  (void)r;

  // RSTs for segments addressed to no connection/listener.
  demux_.SetRstSender([this](const net::TcpHeader& hdr, net::Ipv4Address src,
                             net::Ipv4Address dst, std::size_t payload_len) {
    net::TcpHeader rst;
    rst.src_port = hdr.dst_port;
    rst.dst_port = hdr.src_port;
    rst.flags = net::tcpflag::kRst;
    if (hdr.flags & net::tcpflag::kAck) {
      rst.seq = hdr.ack;
    } else {
      rst.flags |= net::tcpflag::kAck;
      const std::uint32_t syn_fin = ((hdr.flags & net::tcpflag::kSyn) ? 1u : 0u) +
                                    ((hdr.flags & net::tcpflag::kFin) ? 1u : 0u);
      rst.ack = hdr.seq.value() + static_cast<std::uint32_t>(payload_len) + syn_fin;
    }
    rst.window = 0;
    rst.checksum = 0;
    auto m = net::PoolAllocate(plexus_.host().mbuf_pool(), sizeof(rst));
    if (m == nullptr) return;  // pool dry: RSTs are best-effort
    net::StorePacket(*m, rst);
    rst.checksum = proto::TransportChecksum(dst, src, net::ipproto::kTcp, *m);
    net::StorePacket(*m, rst);
    plexus_.ip().Output(std::move(m), src, net::ipproto::kTcp, dst);
  });

  // Hostile-traffic hardening hooks: a clock/rng/metrics home for the
  // demux's SYN cookies and RST rate limiting, and the stateless SYN|ACK
  // emitter (no TCB exists to emit through, so the manager builds the
  // segment itself — header plus our MSS option, costed like any other
  // control segment).
  demux_.AttachHost(&plexus.host());
  demux_.SetSynAckSender([this](const proto::TcpEndpoints& ep, proto::Seq iss,
                                proto::Seq ack) {
    net::TcpHeader hdr;
    hdr.src_port = ep.local_port;
    hdr.dst_port = ep.remote_port;
    hdr.seq = iss;
    hdr.ack = ack;
    hdr.set_header_length(sizeof(hdr) + 4);
    hdr.flags = net::tcpflag::kSyn | net::tcpflag::kAck;
    hdr.window = static_cast<std::uint16_t>(std::min<std::size_t>(config_.recv_window, 65535));
    hdr.checksum = 0;
    auto m = net::PoolAllocate(plexus_.host().mbuf_pool(), sizeof(hdr) + 4);
    if (m == nullptr) return;  // pool dry: the peer retransmits its SYN
    net::StorePacket(*m, hdr);
    const std::byte opt[4] = {std::byte{2}, std::byte{4},
                              static_cast<std::byte>(config_.mss >> 8),
                              static_cast<std::byte>(config_.mss & 0xff)};
    m->CopyIn(sizeof(hdr), opt);
    plexus_.host().Charge(plexus_.host().costs().tcp_output);
    plexus_.host().Charge(plexus_.host().costs().checksum_per_byte *
                          static_cast<std::int64_t>(m->PacketLength()));
    hdr.checksum = proto::TransportChecksum(ep.local_ip, ep.remote_ip, net::ipproto::kTcp, *m);
    net::StorePacket(*m, hdr);
    plexus_.ip().Output(std::move(m), ep.remote_ip, net::ipproto::kTcp, ep.local_ip);
  });
}

void TcpManager::EnqueueBatched(net::MbufPtr segment, const net::Ipv4Header& hdr) {
  if (pending_.empty()) {
    plexus_.AddBatchFlush([this](bool deliver) { FlushBatched(deliver); },
                          [this] { return pending_.size(); });
  }
  pending_.emplace_back(std::move(segment), hdr);
}

void TcpManager::FlushBatched(bool deliver) {
  auto burst = std::move(pending_);
  pending_.clear();
  if (!deliver) return;
  packet_recv_.RaiseBatch(burst, [](std::pair<net::MbufPtr, net::Ipv4Header>& p) {
    return std::forward_as_tuple(*p.first, p.second);
  });
  // Batch end is a GRO flush boundary: nothing may stay parked once the
  // burst's segments have all been dispatched.
  gro_->FlushAll();
}

bool TcpManager::IsSpecialPort(std::uint16_t port) const {
  for (const auto& [_, ports] : special_ports_) {
    if (ports->contains(port)) return true;
  }
  return false;
}

spin::Result<spin::HandlerId> TcpManager::InstallSpecialImplementation(
    std::set<std::uint16_t> ports,
    std::function<void(const net::Mbuf&, const net::Ipv4Header&)> handler,
    spin::HandlerOptions opts) {
  auto shared_ports = std::make_shared<std::set<std::uint16_t>>(std::move(ports));
  // Indexed on every claimed port; the membership check stays on as the
  // verify guard so a mid-raise port release takes effect immediately (key
  // removal from the index is deferred to the post-raise sweep).
  std::vector<std::uint64_t> keys(shared_ports->begin(), shared_ports->end());
  auto verify = [shared_ports](const net::Mbuf& segment, const net::Ipv4Header&) {
    try {
      auto hdr = net::ViewPacket<net::TcpHeader>(segment);
      return shared_ports->contains(static_cast<std::uint16_t>(hdr.dst_port.value()));
    } catch (const net::ViewError&) {
      return false;
    }
  };
  ApplyAppFaultPolicy(opts);
  // Quarantine releases the special implementation's claimed ports, so the
  // standard TCP implementation's guard admits them again.
  opts.fault.on_quarantined = [this, user = std::move(opts.fault.on_quarantined)](
                                  spin::HandlerId id, const spin::HandlerStats& st) {
    special_ports_.erase(id);
    if (user) user(id, st);
  };
  auto r = packet_recv_.InstallKeyed(std::move(handler), std::move(keys), std::move(verify),
                                     std::move(opts));
  if (r.ok()) special_ports_[r.value()] = std::move(shared_ports);
  return r;
}

void TcpManager::AddSpecialPort(spin::HandlerId id, std::uint16_t port) {
  auto it = special_ports_.find(id);
  if (it == special_ports_.end()) return;
  it->second->insert(port);
  packet_recv_.AddHandlerKey(id, port);
}

void TcpManager::RemoveSpecialPort(spin::HandlerId id, std::uint16_t port) {
  auto it = special_ports_.find(id);
  if (it == special_ports_.end()) return;
  it->second->erase(port);
  packet_recv_.RemoveHandlerKey(id, port);
}

bool TcpManager::UninstallSpecialImplementation(spin::HandlerId id) {
  special_ports_.erase(id);
  return packet_recv_.Uninstall(id);
}

TcpManager::~TcpManager() {
  for (auto& weak : wired_) {
    if (auto ep = weak.lock()) {
      if (ep->attached()) ep->Detach();
    }
  }
}

void TcpManager::WireConnection(const std::shared_ptr<PlexusTcpEndpoint>& ep) {
  demux_.Register(&ep->connection());
  ep->registered_ = true;
  wired_.push_back(ep);
}

std::shared_ptr<PlexusTcpEndpoint> TcpManager::Connect(net::Ipv4Address remote_ip,
                                                       std::uint16_t remote_port,
                                                       std::uint16_t local_port) {
  if (local_port == 0) local_port = next_ephemeral_port_++;
  proto::TcpEndpoints ep{plexus_.ip_address(), local_port, remote_ip, remote_port};
  auto endpoint = std::shared_ptr<PlexusTcpEndpoint>(new PlexusTcpEndpoint(plexus_, ep));
  WireConnection(endpoint);
  endpoint->connection().Connect();
  return endpoint;
}

bool TcpManager::Listen(std::uint16_t port, Acceptor acceptor, proto::ListenOptions opts) {
  acceptors_[port] = std::move(acceptor);
  auto factory = [this, port](const proto::TcpEndpoints& ep) -> proto::TcpConnection* {
    // Sweep before creating the new endpoint: it sits in kClosed until
    // Listen() below, so a sweep after the push would reap its keep-alive.
    SweepAccepted();
    auto endpoint = std::shared_ptr<PlexusTcpEndpoint>(new PlexusTcpEndpoint(plexus_, ep));
    accepted_.push_back(endpoint);
    endpoint->SetOnEstablished([this, port, weak = std::weak_ptr(endpoint)] {
      auto ep_ptr = weak.lock();
      if (ep_ptr == nullptr) return;
      auto it = acceptors_.find(port);
      if (it != acceptors_.end() && it->second) {
        it->second(ep_ptr);
        return;
      }
      // The listener went away while this handshake was in flight, so no
      // application will ever claim the endpoint. Real stacks reset the
      // unclaimed accept queue when the listening socket closes; parking
      // the connection here instead would strand it in CLOSE_WAIT and
      // wedge the peer in FIN_WAIT_2 forever once its FIN is ACKed.
      if (accept_overflows_ == nullptr) {
        accept_overflows_ = &plexus_.host().metrics().counter("tcp.accept_overflows");
      }
      accept_overflows_->Inc();
      ep_ptr->connection().Abort();
    });
    WireConnection(endpoint);
    endpoint->connection().Listen();
    return &endpoint->connection();
  };
  return demux_.Listen(port, std::move(factory), opts);
}

void TcpManager::SweepAccepted() {
  // Trigger only when the list has doubled since the last sweep, so a
  // churning server pays O(size) once per size-doubling (amortized O(1)
  // per accept) and a small steady server never pays at all. Wall-clock
  // only: no charges, no metrics, no virtual-time effect.
  if (accepted_.size() < 64 || accepted_.size() < 2 * accepted_sweep_mark_) return;
  std::erase_if(accepted_, [](const std::shared_ptr<PlexusTcpEndpoint>& ep) {
    return ep->connection().state() == proto::TcpConnection::State::kClosed;
  });
  accepted_sweep_mark_ = std::max<std::size_t>(32, accepted_.size());
}

void TcpManager::StopListening(std::uint16_t port) {
  acceptors_.erase(port);
  demux_.StopListening(port);
}

std::vector<std::shared_ptr<PlexusTcpEndpoint>> TcpManager::LiveEndpoints() const {
  std::vector<std::shared_ptr<PlexusTcpEndpoint>> out;
  for (const auto& weak : wired_) {
    if (auto ep = weak.lock()) {
      if (ep->attached()) out.push_back(std::move(ep));
    }
  }
  return out;
}

// --- PlexusHost ----------------------------------------------------------------

PlexusHost::Iface PlexusHost::MakeIface(drivers::DeviceProfile profile, NetConfig cfg) {
  Iface iface;
  iface.nic = std::make_unique<drivers::Nic>(host_, std::move(profile), cfg.mac);
  iface.eth = std::make_unique<proto::EthLayer>(host_, *iface.nic);
  iface.arp = std::make_unique<proto::ArpService>(host_, *iface.eth, cfg.ip);
  iface.cfg = cfg;
  // ifaces_ may not contain this entry yet: the caller pushes it next.
  rcvif_to_if_index_[iface.nic->index()] = static_cast<int>(rcvif_to_if_index_.size());
  return iface;
}

int PlexusHost::IfIndexForRcvif(int rcvif) const {
  auto it = rcvif_to_if_index_.find(rcvif);
  return it == rcvif_to_if_index_.end() ? 0 : it->second;
}

int PlexusHost::AddNic(drivers::DeviceProfile profile, NetConfig cfg) {
  const std::size_t mtu = profile.mtu;
  ifaces_.push_back(MakeIface(std::move(profile), cfg));
  const int if_index = static_cast<int>(ifaces_.size()) - 1;
  ip_layer_->AddInterface(if_index,
                          proto::Ipv4Layer::Interface{cfg.ip, cfg.prefix_len, mtu});
  // Frames from the new NIC feed the same Ethernet.PacketRecv event; the
  // receive interface travels in the packet header.
  ifaces_.back().eth->SetUpcall(
      [this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
        eth_mgr_->OnFrame(std::move(frame), hdr);
      });
  WireBatchHooks(*ifaces_.back().eth);
  return if_index;
}

void PlexusHost::TransmitIp(net::MbufPtr packet, net::Ipv4Address next_hop, int if_index) {
  if (if_index < 0 || if_index >= static_cast<int>(ifaces_.size())) return;
  Iface& iface = ifaces_[static_cast<std::size_t>(if_index)];
  // The move-only callback parks the packet itself while resolution is
  // pending; on the (dominant) cache-hit path it is invoked synchronously
  // and the buffer flows straight to the wire — no shared_ptr, no clone.
  iface.arp->Resolve(
      next_hop,
      [&iface, pkt = std::move(packet)](std::optional<net::MacAddress> mac) mutable {
        if (!mac) return;  // unresolvable; drop
        iface.eth->Output(std::move(pkt), *mac, net::ethertype::kIpv4);
      });
}

std::vector<PlexusHost::Iface> PlexusHost::MakeInitialIfaces(
    const drivers::DeviceProfile& profile, NetConfig cfg) {
  std::vector<Iface> out;
  out.push_back(MakeIface(profile, cfg));
  return out;
}

PlexusHost::PlexusHost(sim::Simulator& s, std::string name, sim::CostModel costs,
                       drivers::DeviceProfile profile, NetConfig net_config, HandlerMode mode,
                       std::uint64_t seed)
    : host_(s, std::move(name), costs, seed),
      mbuf_pool_(std::make_unique<net::MbufPool>(net::MbufPool::DefaultCapacity())),
      deferred_(host_),
      dispatcher_(&host_),
      linker_(&host_),
      net_config_(net_config),
      mode_(mode),
      ifaces_(MakeInitialIfaces(profile, net_config)),
      ip_layer_(std::make_unique<proto::Ipv4Layer>(
          host_,
          proto::Ipv4Layer::Config{net_config.ip, net_config.prefix_len, profile.mtu})),
      icmp_(std::make_unique<proto::IcmpLayer>(host_, *ip_layer_)),
      udp_layer_(std::make_unique<proto::UdpLayer>(host_, *ip_layer_)),
      am_(std::make_unique<proto::ActiveMessageEndpoint>(host_, *ifaces_[0].eth)) {
  WireMbufPool();
  eth_mgr_ = std::make_unique<EthernetManager>(*this, *ifaces_[0].eth);
  ip_mgr_ = std::make_unique<IpManager>(*this, *ip_layer_, *ifaces_[0].arp);
  udp_mgr_ = std::make_unique<UdpManager>(*this, *udp_layer_);
  tcp_mgr_ = std::make_unique<TcpManager>(*this, proto::TcpConfig{});
  WireGraph();

  // Protection domains. The kernel domain exports everything; applications
  // are linked against a domain that only lets them create endpoints and
  // register active-message handlers — they can neither reach the raw
  // Ethernet/IP output paths nor install unguarded receive handlers.
  kernel_domain_ = spin::Domain::Create(host_.name() + ".kernel");
  app_domain_ = spin::Domain::Create(host_.name() + ".app");
  ExportDomainSymbols();
}

// Export (or re-export after a restart: Domain::Export overwrites) the
// kernel/app interfaces under their stable names.
void PlexusHost::ExportDomainSymbols() {
  kernel_domain_->Export("EthernetManager", eth_mgr_.get());
  kernel_domain_->Export("IpManager", ip_mgr_.get());
  kernel_domain_->Export("UdpManager", udp_mgr_.get());
  kernel_domain_->Export("TcpManager", tcp_mgr_.get());
  kernel_domain_->Export("ActiveMessages", am_.get());
  kernel_domain_->Export("Mbuf.Allocate", true);

  app_domain_->Export("UdpManager", udp_mgr_.get());
  app_domain_->Export("TcpManager", tcp_mgr_.get());
  app_domain_->Export("Mbuf.Allocate", true);
}

std::string PlexusHost::DescribeGraph() const {
  std::string out;
  auto section = [&out](const std::string& event, const std::vector<spin::HandlerInfo>& infos) {
    std::size_t live = 0;
    for (const auto& h : infos) live += h.alive ? 1 : 0;
    out += event + " (" + std::to_string(live) + " handlers)\n";
    for (const auto& h : infos) {
      out += "  - " + h.name + " inv=" + std::to_string(h.stats.invocations) +
             " term=" + std::to_string(h.stats.terminations) +
             " faults=" + std::to_string(h.stats.faults);
      if (h.stats.quarantined) out += " [quarantined]";
      out += "\n";
    }
  };
  section("Ethernet.PacketRecv", eth_mgr_->packet_recv_.Describe());
  section("Ip.PacketRecv", ip_mgr_->packet_recv_.Describe());
  section("Udp.PacketRecv", udp_mgr_->packet_recv_.Describe());
  section("Tcp.PacketRecv", tcp_mgr_->packet_recv_.Describe());
  // Everything the host's modules counted (spin.*, ip.*, nicN.*, ...)
  // alongside the per-handler rows above.
  out += "metrics: " + host_.metrics().ToJson() + "\n";
  return out;
}

namespace {

std::string FlightJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // control chars never appear in our names; stay valid JSON
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string PlexusHost::SnapshotTelemetry(std::size_t tracer_tail) {
  sim::Simulator& sim = host_.simulator();
  std::string out = "{\"schema\":\"plexus-flight-v1\"";
  out += ",\"host\":\"" + FlightJsonEscape(host_.name()) + "\"";
  out += ",\"now_ns\":" + std::to_string(host_.Now().ns());
  out += std::string(",\"crashed\":") + (crashed_ ? "true" : "false");
  out += std::string(",\"mode\":\"") +
         (mode_ == HandlerMode::kInterrupt ? "interrupt" : "thread") + "\"";

  // Both registries whole: everything the host's modules and the engine
  // itself counted, percentiles included.
  out += ",\"metrics\":" + host_.metrics().ToJson();
  out += ",\"sim_metrics\":" + sim.metrics().ToJson();

  out += ",\"mbuf_pool\":{\"capacity\":" + std::to_string(mbuf_pool_->capacity()) +
         ",\"in_use\":" + std::to_string(mbuf_pool_->in_use()) +
         ",\"peak\":" + std::to_string(mbuf_pool_->peak_in_use()) +
         ",\"total_allocated\":" + std::to_string(mbuf_pool_->total_allocated()) +
         ",\"exhaustions\":" + std::to_string(mbuf_pool_->exhaustions()) + "}";

  out += ",\"nics\":[";
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    const drivers::Nic& n = *ifaces_[i].nic;
    const drivers::Nic::Stats s = n.stats();
    out += i == 0 ? "{" : ",{";
    out += "\"prefix\":\"" + FlightJsonEscape(n.metrics_prefix()) + "\"";
    out += ",\"rx_ring_depth\":" + std::to_string(n.profile().rx_ring_depth);
    out += ",\"rx_ring_occupancy\":" + std::to_string(n.rx_ring_size());
    out += std::string(",\"polling\":") + (n.polling() ? "true" : "false");
    out += std::string(",\"carrier\":") + (n.carrier() ? "true" : "false");
    out += std::string(",\"powered\":") + (n.powered() ? "true" : "false");
    out += ",\"rx_frames\":" + std::to_string(s.rx_frames);
    out += ",\"rx_dropped\":" + std::to_string(s.rx_dropped);
    out += ",\"tx_frames\":" + std::to_string(s.tx_frames);
    out += "}";
  }
  out += "]";

  out += ",\"deferred\":{\"depth\":" + std::to_string(deferred_.depth()) +
         ",\"peak\":" + std::to_string(deferred_.peak_depth()) +
         std::string(",\"shedding\":") + (deferred_.shedding() ? "true" : "false") + "}";

  const spin::Dispatcher::Stats d = dispatcher_.stats();
  out += ",\"dispatcher\":{\"raises\":" + std::to_string(d.raises) +
         ",\"handler_invocations\":" + std::to_string(d.handler_invocations) +
         ",\"guard_evals\":" + std::to_string(d.guard_evals) +
         ",\"guard_rejections\":" + std::to_string(d.guard_rejections) +
         ",\"demux_lookups\":" + std::to_string(d.demux_lookups) +
         ",\"terminations\":" + std::to_string(d.terminations) +
         ",\"faults\":" + std::to_string(d.faults) +
         ",\"quarantines\":" + std::to_string(d.quarantines) + "}";

  // Quarantined tombstones across the graph's four dispatch points.
  out += ",\"quarantined\":[";
  {
    bool first = true;
    const std::pair<const char*, std::vector<spin::HandlerInfo>> events[] = {
        {"Ethernet.PacketRecv", eth_mgr_->packet_recv_.Describe()},
        {"Ip.PacketRecv", ip_mgr_->packet_recv_.Describe()},
        {"Udp.PacketRecv", udp_mgr_->packet_recv_.Describe()},
        {"Tcp.PacketRecv", tcp_mgr_->packet_recv_.Describe()},
    };
    for (const auto& [event, infos] : events) {
      for (const spin::HandlerInfo& h : infos) {
        if (!h.stats.quarantined) continue;
        out += first ? "{" : ",{";
        out += std::string("\"event\":\"") + event + "\"";
        out += ",\"handler\":\"" + FlightJsonEscape(h.name) + "\"";
        out += ",\"terminations\":" + std::to_string(h.stats.terminations);
        out += ",\"faults\":" + std::to_string(h.stats.faults) + "}";
        first = false;
      }
    }
  }
  out += "]";

  // Per-flow TCP_INFO table (crashed hosts have no live flows).
  out += ",\"flows\":[";
  if (tcp_mgr_ != nullptr) {
    bool first = true;
    for (const auto& ep : tcp_mgr_->LiveEndpoints()) {
      const proto::TcpConnection& c = ep->connection();
      const proto::TcpEndpoints& e = c.endpoints();
      out += first ? "{" : ",{";
      out += "\"local\":\"" + e.local_ip.ToString() + ":" +
             std::to_string(e.local_port) + "\"";
      out += ",\"remote\":\"" + e.remote_ip.ToString() + ":" +
             std::to_string(e.remote_port) + "\"";
      out += ",\"info\":" + c.info().ToJson();
      out += ",\"telemetry\":" + c.SamplesJson() + "}";
      first = false;
    }
  }
  out += "]";

  // Tracer tail: the last `tracer_tail` completed records, plus how many
  // fell off the ring before them.
  const sim::Tracer& tr = sim.tracer();
  out += std::string(",\"tracer\":{\"enabled\":") + (tr.enabled() ? "true" : "false");
  out += ",\"recorded\":" + std::to_string(tr.size());
  out += ",\"dropped\":" + std::to_string(tr.dropped());
  out += ",\"tail\":[";
  {
    const std::vector<sim::Tracer::Record> recs = tr.Records();
    const std::size_t start = recs.size() > tracer_tail ? recs.size() - tracer_tail : 0;
    for (std::size_t i = start; i < recs.size(); ++i) {
      const sim::Tracer::Record& r = recs[i];
      out += i == start ? "{" : ",{";
      out += "\"t_ns\":" + std::to_string(r.task_start.ns() + r.begin_offset.ns());
      out += ",\"track\":\"" + FlightJsonEscape(tr.track_name(r.track)) + "\"";
      out += ",\"name\":\"" + FlightJsonEscape(r.name) + "\"";
      out += ",\"category\":\"" + FlightJsonEscape(r.category) + "\"";
      out += ",\"self_ns\":" + std::to_string(r.self.ns()) + "}";
    }
  }
  out += "]}}";
  return out;
}

void PlexusHost::GraphHop(GraphFn raise, bool sheddable) {
  // An open batch scope coalesces: the raise is parked and later runs
  // inside the scope's single hop task (thread mode) or its inline close
  // (interrupt mode), alongside every other hop of the burst.
  if (batch_active_) {
    batch_fns_.push_back(std::move(raise));
    return;
  }
  if (mode_ == HandlerMode::kInterrupt) {
    raise();
    return;
  }
  // Thread mode: "each event raise creating a new thread". The backlog of
  // spawned-but-not-run threads is bounded; past the watermark the newest
  // driver-edge work is shed before any CPU is spent on it.
  if (!deferred_.Admit(sheddable)) return;
  host_.Charge(host_.costs().thread_spawn);
  host_.Submit(sim::Priority::kThread, [this, raise = std::move(raise)] {
    PLEXUS_PROFILE_SCOPE(kDeferredHop);
    deferred_.OnStart();
    host_.Charge(host_.costs().thread_handoff);
    raise();
  });
}

void PlexusHost::AddBatchFlush(std::function<void(bool)> flush,
                               std::function<std::size_t()> count) {
  assert(batch_active_ && "AddBatchFlush outside a batch scope");
  batch_flushes_.push_back(BatchFlushEntry{std::move(flush), std::move(count)});
}

void PlexusHost::WireBatchHooks(proto::EthLayer& eth) {
  eth.SetBatchHooks([this](std::size_t) { OpenBatchScope(); },
                    [this] { CloseBatchScope(/*sheddable=*/true); });
}

void PlexusHost::OpenBatchScope() { batch_active_ = true; }

// Closes the scope and moves its parked work into one coalesced hop. Each
// coalesced hop re-opens a scope while it runs, so a burst travels the
// graph layer by layer — exactly the interleave order of the per-packet
// thread-mode path (FIFO hop tasks), with one hop per layer instead of one
// per packet per layer. The chain ends at the first scope that parks
// nothing.
void PlexusHost::CloseBatchScope(bool sheddable) {
  batch_active_ = false;
  auto fns = std::move(batch_fns_);
  auto flushes = std::move(batch_flushes_);
  batch_fns_.clear();
  batch_flushes_.clear();
  std::size_t frames = fns.size();
  for (const BatchFlushEntry& f : flushes) frames += f.count();
  if (frames == 0) return;
  if (mode_ == HandlerMode::kInterrupt) {
    // Interrupt mode runs hops inline and never sheds; the batch win here
    // is the amortized dispatch + single probe + GRO, not the thread hop.
    batch_active_ = true;
    for (GraphFn& fn : fns) fn();
    for (BatchFlushEntry& f : flushes) f.flush(true);
    CloseBatchScope(/*sheddable=*/false);
    return;
  }
  if (!deferred_.AdmitBurst(frames, sheddable)) {
    for (BatchFlushEntry& f : flushes) f.flush(false);
    return;
  }
  // One admission, one spawn-equivalent for the group; the hop task pays
  // the per-frame residual. (This also folds away the per-frame hop the
  // overload sweep used to double-charge on top of a quota-bounded poll
  // pass.)
  host_.Charge(host_.costs().batch_hop);
  struct Payload {
    std::vector<GraphFn> fns;
    std::vector<BatchFlushEntry> flushes;
    std::size_t frames;
  };
  auto payload = std::make_unique<Payload>(
      Payload{std::move(fns), std::move(flushes), frames});
  host_.Submit(sim::Priority::kThread, [this, p = std::move(payload)] {
    PLEXUS_PROFILE_SCOPE(kDeferredHop);
    deferred_.OnStart();
    host_.Charge(sim::Duration::Nanos(host_.costs().batch_frame.ns() *
                                      static_cast<std::int64_t>(p->frames)));
    // A hop carrying several frames is one batched unit of work: a reply
    // sent for an early frame leaves before the later frames are handled.
    sim::Host::BatchScope scope(host_, /*multi_frame=*/p->frames > 1);
    batch_active_ = true;
    for (GraphFn& fn : p->fns) fn();
    for (BatchFlushEntry& f : p->flushes) f.flush(true);
    CloseBatchScope(/*sheddable=*/false);
  });
}

void PlexusHost::WireMbufPool() {
  host_.set_mbuf_pool(mbuf_pool_.get());
  auto& in_use = host_.metrics().gauge("mbuf.pool_in_use");
  auto& peak = host_.metrics().gauge("mbuf.pool_peak");
  auto& exhausted = host_.metrics().counter("mbuf.pool_exhausted");
  mbuf_pool_->SetOccupancyGauges(in_use.slot(), peak.slot());
  mbuf_pool_->SetExhaustionHook([&exhausted] { exhausted.Inc(); });
}

void PlexusHost::SetMbufPoolCapacity(std::size_t segments) {
  // Swap in a fresh pool; buffers from the old one stay valid and retire
  // against its (now hook-less) books.
  mbuf_pool_ = std::make_unique<net::MbufPool>(segments);
  WireMbufPool();
}

void PlexusHost::WireGraph() {
  const bool eph = requires_ephemeral();

  // Every attachment point brackets its rx bursts with this host's batch
  // scope, so a burst from any NIC coalesces its graph hops.
  for (Iface& iface : ifaces_) WireBatchHooks(*iface.eth);

  // --- Ethernet level: ARP, IP, active messages -----------------------------
  // Kernel handlers dispatch on one EtherType each: installed behind the
  // demux index (keyed, no residual guard), so the device interrupt path
  // pays one demux lookup regardless of how many protocols are wired in.
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "arp-input";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) {
          auto payload = frame.ShareClone();
          payload->TrimFront(sizeof(net::EthernetHeader));
          // Route the ARP packet to the service owning the receive interface.
          const int if_index = IfIndexForRcvif(frame.pkthdr().rcvif);
          ifaces_[static_cast<std::size_t>(if_index)].arp->Input(std::move(payload));
        },
        net::ethertype::kArp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "ip-input";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) {
          auto packet = frame.ShareClone();
          packet->TrimFront(sizeof(net::EthernetHeader));
          ip_layer_->Input(std::move(packet));
        },
        net::ethertype::kIpv4, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "active-messages";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) { am_->Input(frame); },
        net::ethertype::kActiveMessage, nullptr, opts);
    assert(r.ok());
    (void)r;
  }

  // --- IP glue ---------------------------------------------------------------
  ip_layer_->SetTransmit([this](net::MbufPtr packet, net::Ipv4Address next_hop, int if_index) {
    TransmitIp(std::move(packet), next_hop, if_index);
  });
  ip_layer_->SetDeliver([this](net::MbufPtr payload, const net::Ipv4Header& hdr) {
    if (batch_active_) {
      ip_mgr_->EnqueueBatched(std::move(payload), hdr);
      return;
    }
    GraphHop([this, ref = std::move(payload), hdr] {
      ip_mgr_->packet_recv().Raise(*ref, hdr);
    });
  });
  ip_layer_->SetIcmpNotify([this](const net::Ipv4Header& hdr, std::uint8_t type,
                                  std::uint8_t code) { icmp_->SendError(hdr, type, code); });

  // --- IP level: ICMP, UDP, TCP ----------------------------------------------
  // Same scheme one layer up: each kernel transport claims its protocol
  // number in Ip.PacketRecv's demux index.
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "icmp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          icmp_->Input(payload.ShareClone(), hdr.src);
        },
        net::ipproto::kIcmp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "udp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          udp_layer_->Input(payload.ShareClone(), hdr.src, hdr.dst);
        },
        net::ipproto::kUdp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "tcp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          if (batch_active_) {
            tcp_mgr_->EnqueueBatched(payload.ShareClone(), hdr);
            return;
          }
          GraphHop([this, ref = payload.ShareClone(), hdr] {
            tcp_mgr_->packet_recv().Raise(*ref, hdr);
          });
        },
        net::ipproto::kTcp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  (void)eph;
}

// --- crash / cold restart ------------------------------------------------------

void PlexusHost::Crash() {
  if (crashed_) return;
  assert(!host_.in_task() && "Crash() models an external power cut, not a syscall");
  crashed_ = true;
  if (crashes_ == nullptr) crashes_ = &host_.metrics().counter("host.crashes");
  crashes_->Inc();
  host_.TraceInstant("host.crash", "chaos");

  // Routing is configuration, not volatile protocol state: remember it so
  // the reboot comes back with the same view of the topology.
  saved_routes_ = ip_layer_->routes();
  saved_forwarding_ = ip_layer_->config().forwarding_enabled;

  // Teardown runs top-down in dependency order. The TCP manager first: its
  // destructor detaches every endpoint (connections Vanish — all timers
  // cancelled, no segments, no callbacks) while application-held
  // shared_ptrs keep the endpoint objects alive harmlessly.
  tcp_mgr_.reset();
  udp_mgr_.reset();
  ip_mgr_.reset();
  eth_mgr_.reset();
  am_.reset();
  udp_layer_.reset();
  icmp_.reset();
  ip_layer_.reset();  // dtor cancels reassembly timers
  for (Iface& iface : ifaces_) {
    iface.arp.reset();  // dtor cancels request timers
    iface.nic->SetReceiveCallback(nullptr);
    iface.nic->Reset();  // ring buffers return to the pool
    iface.nic->set_powered(false);
    iface.eth.reset();
  }
  // Queued work dies with the machine: dropping pending CPU tasks releases
  // any buffer references they captured, so the pool drains to zero — the
  // leak invariant the chaos harness checks.
  host_.cpu().Reset();
  deferred_.Reset();
  // Any open batch scope died with the task that opened it; the managers'
  // parked bursts were freed when the managers were torn down above.
  batch_active_ = false;
  batch_fns_.clear();
  batch_flushes_.clear();
}

void PlexusHost::Restart(std::optional<net::MacAddress> new_mac) {
  if (!crashed_) return;
  assert(!host_.in_task() && "Restart() happens from outside the simulated machine");
  crashed_ = false;
  if (restarts_ == nullptr) restarts_ = &host_.metrics().counter("host.restarts");
  restarts_->Inc();
  host_.TraceInstant("host.restart", "chaos");

  if (new_mac) {
    // The machine came back with a swapped adapter: peers holding the old
    // MAC in their ARP caches reach nobody until the entry expires.
    ifaces_[0].cfg.mac = *new_mac;
    net_config_.mac = *new_mac;
  }

  // Power the NICs on and rebuild framing + neighbor resolution. The
  // EthLayer constructor re-hooks the NIC receive callback.
  for (Iface& iface : ifaces_) {
    iface.nic->set_mac(iface.cfg.mac);
    iface.nic->set_powered(true);
    iface.eth = std::make_unique<proto::EthLayer>(host_, *iface.nic);
    iface.arp = std::make_unique<proto::ArpService>(host_, *iface.eth, iface.cfg.ip);
  }

  // Fresh protocol layers; the saved routing configuration is restored.
  ip_layer_ = std::make_unique<proto::Ipv4Layer>(
      host_, proto::Ipv4Layer::Config{ifaces_[0].cfg.ip, ifaces_[0].cfg.prefix_len,
                                      ifaces_[0].nic->profile().mtu});
  ip_layer_->routes() = saved_routes_;
  ip_layer_->set_forwarding(saved_forwarding_);
  for (std::size_t i = 1; i < ifaces_.size(); ++i) {
    ip_layer_->AddInterface(
        static_cast<int>(i),
        proto::Ipv4Layer::Interface{ifaces_[i].cfg.ip, ifaces_[i].cfg.prefix_len,
                                    ifaces_[i].nic->profile().mtu});
  }
  icmp_ = std::make_unique<proto::IcmpLayer>(host_, *ip_layer_);
  udp_layer_ = std::make_unique<proto::UdpLayer>(host_, *ip_layer_);
  am_ = std::make_unique<proto::ActiveMessageEndpoint>(host_, *ifaces_[0].eth);

  // Fresh managers and a freshly wired graph. A reborn TcpManager has an
  // empty demux: stale segments from old peers hit no connection and draw
  // RSTs — exactly how they learn about the restart. The EthernetManager
  // constructor claims the primary interface's upcall; secondary interfaces
  // are pointed back at it.
  eth_mgr_ = std::make_unique<EthernetManager>(*this, *ifaces_[0].eth);
  for (std::size_t i = 1; i < ifaces_.size(); ++i) {
    ifaces_[i].eth->SetUpcall([this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
      eth_mgr_->OnFrame(std::move(frame), hdr);
    });
  }
  ip_mgr_ = std::make_unique<IpManager>(*this, *ip_layer_, *ifaces_[0].arp);
  udp_mgr_ = std::make_unique<UdpManager>(*this, *udp_layer_);
  tcp_mgr_ = std::make_unique<TcpManager>(*this, proto::TcpConfig{});
  WireGraph();
  ExportDomainSymbols();
}

}  // namespace core
