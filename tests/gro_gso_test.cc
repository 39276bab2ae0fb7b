// GRO coalescing boundaries and GSO split correctness (tier 1).
//
// GroEngine is exercised standalone with hand-built segments: the coalesce
// boundary table (flag changes, options, seq gaps, window updates, the
// max-merge cap), the flush-timer-vs-batch-end race, checksum validity of
// merged chains, and trace-id propagation through a merge. GSO is exercised
// over a two-connection software pipe: an oversized send must reach the
// wire as the same MSS-sized frames the per-packet path emits — same
// boundaries, PSH placement, and per-frame checksums — while the jumbo
// counter advances only when batching is on. Delayed ACK is exercised
// across the GRO edge: a coalesced chain must earn the receiver's ACKs in
// full-sized-segment equivalents, exactly as its wire segments would have.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "drivers/device_profile.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/view.h"
#include "proto/gro.h"
#include "proto/tcp.h"
#include "proto/transport_checksum.h"
#include "sim/batch.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace proto {
namespace {

// Pins the batch gate for one test, restoring the prior resolution after.
struct ScopedBatchMode {
  explicit ScopedBatchMode(bool on) : prev_(sim::BatchConfig::enabled()) {
    sim::BatchConfig::SetEnabled(on);
  }
  ~ScopedBatchMode() { sim::BatchConfig::SetEnabled(prev_); }
  bool prev_;
};

const net::Ipv4Address kSrc(10, 0, 0, 1);
const net::Ipv4Address kDst(10, 0, 0, 2);

// A TCP segment as TcpDemux would see it: header + payload, checksum valid.
net::MbufPtr MakeSeg(std::uint32_t seq, std::string_view payload,
                     std::uint8_t flags = net::tcpflag::kAck,
                     std::uint32_t ack = 500, std::uint16_t window = 4096,
                     std::size_t header_len = sizeof(net::TcpHeader),
                     std::uint16_t src_port = 1000, std::uint16_t dst_port = 80) {
  auto m = net::Mbuf::Allocate(header_len + payload.size());
  net::TcpHeader hdr;
  hdr.src_port = src_port;
  hdr.dst_port = dst_port;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.set_header_length(header_len);
  hdr.flags = flags;
  hdr.window = window;
  hdr.checksum = 0;
  net::StorePacket(*m, hdr);
  if (!payload.empty()) {
    m->CopyIn(header_len, {reinterpret_cast<const std::byte*>(payload.data()),
                           payload.size()});
  }
  hdr.checksum = TransportChecksum(kSrc, kDst, net::ipproto::kTcp, *m);
  net::StorePacket(*m, hdr);
  return m;
}

bool ChecksumValid(const net::Mbuf& seg) {
  auto hdr = net::ViewPacket<net::TcpHeader>(seg);
  const std::uint16_t stored = hdr.checksum.value();
  auto copy = seg.Linearize();
  auto m = net::Mbuf::FromBytes(copy);
  hdr.checksum = 0;
  net::StorePacket(*m, hdr);
  return TransportChecksum(kSrc, kDst, net::ipproto::kTcp, *m) == stored;
}

struct Delivered {
  net::MbufPtr seg;
  net::Ipv4Address src, dst;
};

struct GroFixture {
  GroFixture() : GroFixture(GroEngine::Config{}) {}
  explicit GroFixture(GroEngine::Config cfg)
      : host(sim, "h", sim::CostModel::Default1996(), 1),
        gro(host,
            [this](net::MbufPtr m, net::Ipv4Address s, net::Ipv4Address d) {
              out.push_back({std::move(m), s, d});
            },
            cfg) {}

  std::string PayloadOf(std::size_t i) const {
    auto hdr = net::ViewPacket<net::TcpHeader>(*out[i].seg);
    auto bytes = out[i].seg->Linearize();
    return std::string(reinterpret_cast<const char*>(bytes.data()) + hdr.header_length(),
                       bytes.size() - hdr.header_length());
  }

  sim::Simulator sim;
  sim::Host host;
  std::vector<Delivered> out;
  GroEngine gro;
};

TEST(Gro, MergesConsecutiveInOrderPureDataSegments) {
  GroFixture f;
  f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
  f.gro.Push(MakeSeg(104, "bbbb"), kSrc, kDst);
  f.gro.Push(MakeSeg(108, "cc"), kSrc, kDst);
  EXPECT_TRUE(f.gro.holding());
  EXPECT_TRUE(f.out.empty());
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  auto hdr = net::ViewPacket<net::TcpHeader>(*f.out[0].seg);
  EXPECT_EQ(hdr.seq.value(), 100u);
  EXPECT_EQ(f.PayloadOf(0), "aaaabbbbcc");
  EXPECT_TRUE(ChecksumValid(*f.out[0].seg));
  EXPECT_EQ(f.gro.stats().pushed, 3u);
  EXPECT_EQ(f.gro.stats().merged, 2u);
  EXPECT_EQ(f.gro.stats().flushes, 1u);
  EXPECT_EQ(f.gro.stats().passthrough, 0u);
}

// The boundary table: each row is a second segment that must NOT fold into
// a held chain started by seg(100, "aaaa"). Rows marked passthrough bypass
// coalescing entirely (the held chain flushes first, order preserved);
// the others start a fresh chain.
struct BoundaryCase {
  const char* name;
  net::MbufPtr (*make)();
  bool passthrough;  // vs. starts a new chain
};

TEST(Gro, BoundaryTable) {
  const BoundaryCase kCases[] = {
      {"psh_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kPsh); },
       true},
      {"fin_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kFin); },
       true},
      {"rst_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kRst); }, true},
      {"urg_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kUrg); },
       true},
      {"bare_ack", [] { return MakeSeg(104, ""); }, true},
      {"options", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 4096,
                                      sizeof(net::TcpHeader) + 4); },
       true},
      {"seq_gap", [] { return MakeSeg(200, "bbbb"); }, false},
      {"seq_overlap", [] { return MakeSeg(102, "bbbb"); }, false},
      {"ack_advance", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 501); }, false},
      {"window_update",
       [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 2048); }, false},
      {"other_flow",
       [] {
         return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 4096,
                        sizeof(net::TcpHeader), 1001);
       },
       false},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    GroFixture f;
    f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
    f.gro.Push(c.make(), kSrc, kDst);
    // The held chain flushed un-merged; the boundary segment either went
    // straight through (2 deliveries) or is now the held chain (1).
    ASSERT_GE(f.out.size(), 1u);
    EXPECT_EQ(f.PayloadOf(0), "aaaa");
    EXPECT_EQ(f.gro.stats().merged, 0u);
    if (c.passthrough) {
      ASSERT_EQ(f.out.size(), 2u);
      EXPECT_EQ(f.gro.stats().passthrough, 1u);
      EXPECT_FALSE(f.gro.holding());
    } else {
      EXPECT_EQ(f.out.size(), 1u);
      EXPECT_TRUE(f.gro.holding());
    }
  }
}

TEST(Gro, MaxMergeCapStartsANewChain) {
  GroEngine::Config cfg;
  cfg.max_merge = 2;
  GroFixture f(cfg);
  f.gro.Push(MakeSeg(100, "aa"), kSrc, kDst);
  f.gro.Push(MakeSeg(102, "bb"), kSrc, kDst);  // merged: chain is at cap
  f.gro.Push(MakeSeg(104, "cc"), kSrc, kDst);  // cap: flush + new chain
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.PayloadOf(0), "aabb");
  EXPECT_TRUE(f.gro.holding());
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.PayloadOf(1), "cc");
}

TEST(Gro, FlushTimerDeliversAParkedChain) {
  GroEngine::Config cfg;
  cfg.flush_timeout = sim::Duration::Micros(50);
  GroFixture f(cfg);
  f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
  f.gro.Push(MakeSeg(104, "bbbb"), kSrc, kDst);
  EXPECT_TRUE(f.gro.holding());
  f.sim.RunFor(sim::Duration::Millis(1));
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.PayloadOf(0), "aaaabbbb");
  EXPECT_TRUE(ChecksumValid(*f.out[0].seg));
  EXPECT_EQ(f.gro.stats().timer_flushes, 1u);
  EXPECT_FALSE(f.gro.holding());
}

TEST(Gro, BatchEndFlushBeatsTheTimerWithoutDoubleDelivery) {
  GroEngine::Config cfg;
  cfg.flush_timeout = sim::Duration::Micros(50);
  GroFixture f(cfg);
  f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
  f.gro.FlushAll();  // batch end wins the race
  ASSERT_EQ(f.out.size(), 1u);
  f.sim.RunFor(sim::Duration::Millis(1));  // the armed timer must be inert
  EXPECT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.gro.stats().flushes, 1u);
  EXPECT_EQ(f.gro.stats().timer_flushes, 0u);
}

TEST(Gro, MergeKeepsTheHeadSegmentsTraceId) {
  GroFixture f;
  auto first = MakeSeg(100, "aaaa");
  first->pkthdr().trace_id = 77;
  auto second = MakeSeg(104, "bbbb");
  second->pkthdr().trace_id = 78;
  f.gro.Push(std::move(first), kSrc, kDst);
  f.gro.Push(std::move(second), kSrc, kDst);
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0].seg->pkthdr().trace_id, 77u);
}

TEST(Gro, SingleSegmentFlushIsUntouched) {
  GroFixture f;
  auto seg = MakeSeg(100, "aaaa");
  const auto before = seg->Linearize();
  f.gro.Push(std::move(seg), kSrc, kDst);
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0].seg->Linearize(), before);  // checksum not rewritten
}

// --- GSO: split at the emission edge -------------------------------------------

// A minimal bidirectional pipe (tcp_test.cc's shape) that records every
// client-emitted wire frame.
class GsoPipe {
 public:
  struct Frame {
    net::TcpHeader hdr;
    std::size_t payload_len;
    bool checksum_ok;
  };

  explicit GsoPipe(TcpConfig cfg)
      : client_host_(sim_, "client", sim::CostModel::Default1996(), 11),
        server_host_(sim_, "server", sim::CostModel::Default1996(), 22) {
    const net::Ipv4Address kClientIp(10, 0, 0, 1), kServerIp(10, 0, 0, 2);
    client_ = std::make_unique<TcpConnection>(
        client_host_, cfg, TcpEndpoints{kClientIp, 1000, kServerIp, 80},
        MakeCallbacks(true));
    server_ = std::make_unique<TcpConnection>(
        server_host_, cfg, TcpEndpoints{kServerIp, 80, kClientIp, 1000},
        MakeCallbacks(false));
  }

  TcpConnection::Callbacks MakeCallbacks(bool is_client) {
    TcpConnection::Callbacks cbs;
    cbs.send_segment = [this, is_client](net::MbufPtr seg, net::Ipv4Address src,
                                         net::Ipv4Address dst) {
      if (is_client) {
        auto hdr = net::ViewPacket<net::TcpHeader>(*seg);
        const std::size_t payload = seg->PacketLength() - hdr.header_length();
        const std::uint16_t stored = hdr.checksum.value();
        auto copy = net::Mbuf::FromBytes(seg->Linearize());
        net::TcpHeader zeroed = hdr;
        zeroed.checksum = 0;
        net::StorePacket(*copy, zeroed);
        const bool ok =
            TransportChecksum(src, dst, net::ipproto::kTcp, *copy) == stored;
        client_frames_.push_back({hdr, payload, ok});
      }
      auto shared = std::shared_ptr<net::Mbuf>(seg.release());
      TcpConnection* peer = is_client ? server_.get() : client_.get();
      sim::Host& ph = is_client ? server_host_ : client_host_;
      sim_.Schedule(sim::Duration::Millis(5), [&ph, peer, shared, src, dst] {
        ph.Submit(sim::Priority::kKernel, [peer, shared, src, dst] {
          peer->Input(net::MbufPtr(shared->ShareClone()), src, dst);
        });
      });
    };
    if (!is_client) {
      cbs.on_data = [this](std::span<const std::byte> d) {
        server_rx_.append(reinterpret_cast<const char*>(d.data()), d.size());
      };
    }
    return cbs;
  }

  void Transfer(const std::string& data) {
    server_host_.Submit(sim::Priority::kKernel, [this] { server_->Listen(); });
    client_host_.Submit(sim::Priority::kKernel, [this] { client_->Connect(); });
    sim_.RunFor(sim::Duration::Seconds(2));
    client_host_.Submit(sim::Priority::kKernel,
                        [this, data] { client_->SendString(data); });
    sim_.RunFor(sim::Duration::Seconds(10));
  }

  // Client data frames only (payload > 0), in emission order.
  std::vector<Frame> DataFrames() const {
    std::vector<Frame> r;
    for (const auto& f : client_frames_)
      if (f.payload_len > 0) r.push_back(f);
    return r;
  }

  sim::Simulator sim_;
  sim::Host client_host_;
  sim::Host server_host_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
  std::vector<Frame> client_frames_;
  std::string server_rx_;
};

TcpConfig SmallMssConfig() {
  TcpConfig cfg;
  cfg.mss = 100;
  cfg.gso_segments = 4;
  cfg.initial_cwnd_segments = 8;  // let the first write leave as one jumbo
  return cfg;
}

TEST(Gso, SplitFramesAreWireIdenticalToThePerPacketPath) {
  const std::string data(350, 'x');

  ScopedBatchMode off(false);
  GsoPipe baseline(SmallMssConfig());
  baseline.Transfer(data);
  ASSERT_EQ(baseline.server_rx_.size(), data.size());
  EXPECT_EQ(baseline.client_->stats().gso_jumbos, 0u);

  ScopedBatchMode on(true);
  GsoPipe gso(SmallMssConfig());
  gso.Transfer(data);
  ASSERT_EQ(gso.server_rx_, data);
  EXPECT_GE(gso.client_->stats().gso_jumbos, 1u);

  // Same wire frames: boundaries, seq, flags (PSH only where the send
  // buffer ends), windows, and a valid checksum in every header.
  const auto a = baseline.DataFrames();
  const auto b = gso.DataFrames();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].hdr.seq.value(), b[i].hdr.seq.value());
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].hdr.flags, b[i].hdr.flags);
    EXPECT_LE(b[i].payload_len, 100u);  // never larger than the MSS
    EXPECT_TRUE(b[i].checksum_ok);
  }
  // The split got the same bytes there in fewer emission passes: the jumbo
  // counter advanced and the total wire segment count did not.
  EXPECT_EQ(gso.client_->stats().segments_sent, baseline.client_->stats().segments_sent);
}

TEST(Gso, PshLandsOnlyOnTheFrameEndingAtTheBufferEdge) {
  ScopedBatchMode on(true);
  GsoPipe pipe(SmallMssConfig());
  pipe.Transfer(std::string(350, 'y'));
  const auto frames = pipe.DataFrames();
  ASSERT_GE(frames.size(), 2u);
  std::size_t psh_count = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].hdr.flags & net::tcpflag::kPsh) {
      ++psh_count;
      EXPECT_EQ(i, frames.size() - 1);  // only the final frame pushes
    }
  }
  EXPECT_EQ(psh_count, 1u);
}

TEST(Gso, DisabledByGsoSegmentsOne) {
  ScopedBatchMode on(true);
  TcpConfig cfg = SmallMssConfig();
  cfg.gso_segments = 1;
  GsoPipe pipe(cfg);
  pipe.Transfer(std::string(350, 'z'));
  EXPECT_EQ(pipe.server_rx_.size(), 350u);
  EXPECT_EQ(pipe.client_->stats().gso_jumbos, 0u);
}

// --- delayed ACK over coalesced data --------------------------------------------

// One established receiver, materialized straight from a SYN cookie (no
// handshake traffic), fed through a GroEngine. Records the ack number of
// every segment the receiver emits.
class CoalescedReceiver {
 public:
  static constexpr std::size_t kMss = 100;
  static constexpr std::uint32_t kIrs = 1000;  // the peer's ISN
  static constexpr std::uint32_t kIss = 499;   // so MakeSeg's ack=500 is current

  CoalescedReceiver()
      : host_(sim_, "rx", sim::CostModel::Default1996(), 5),
        gro_(host_, [this](net::MbufPtr m, net::Ipv4Address s, net::Ipv4Address d) {
          conn_->Input(std::move(m), s, d);
        }) {
    TcpConfig cfg;
    cfg.mss = kMss;
    TcpConnection::Callbacks cbs;
    cbs.send_segment = [this](net::MbufPtr seg, net::Ipv4Address, net::Ipv4Address) {
      acks_.push_back(net::ViewPacket<net::TcpHeader>(*seg).ack.value());
    };
    conn_ = std::make_unique<TcpConnection>(host_, cfg, TcpEndpoints{kDst, 80, kSrc, 1000},
                                            std::move(cbs));
    RunTask([this] {
      conn_->Listen();
      conn_->CompleteFromSynCookie(kIss, kIrs, 4096, kMss);
    });
  }

  // One rx burst of back-to-back in-order segments: GRO folds them and the
  // batch-end flush delivers the chain.
  void Burst(const std::vector<std::size_t>& sizes) {
    RunTask([&] {
      for (const std::size_t len : sizes) {
        gro_.Push(MakeSeg(next_seq_, std::string(len, 'd')), kSrc, kDst);
        next_seq_ += static_cast<std::uint32_t>(len);
      }
      gro_.FlushAll();
    });
  }

  // Runs `fn` as a kernel task, well inside the 50 ms delayed-ACK timeout.
  void RunTask(std::function<void()> fn) {
    host_.Submit(sim::Priority::kKernel, std::move(fn));
    sim_.RunFor(sim::Duration::Micros(500));
  }

  sim::Simulator sim_;
  sim::Host host_;
  std::unique_ptr<TcpConnection> conn_;
  GroEngine gro_;
  std::vector<std::uint32_t> acks_;
  std::uint32_t next_seq_ = kIrs + 1;
};

TEST(DelayedAck, CoalescedChainOfFullSegmentsAcksImmediately) {
  for (std::size_t k = 2; k <= 16; ++k) {
    SCOPED_TRACE(k);
    CoalescedReceiver r;
    r.Burst(std::vector<std::size_t>(k, CoalescedReceiver::kMss));
    EXPECT_EQ(r.gro_.stats().merged, k - 1);  // one delivery carried all k
    ASSERT_EQ(r.acks_.size(), 1u);
    EXPECT_EQ(r.acks_[0], CoalescedReceiver::kIrs + 1 + k * CoalescedReceiver::kMss);
    EXPECT_FALSE(r.conn_->delack_pending());
  }
}

TEST(DelayedAck, SegmentOfAtMostOneMssStillDelays) {
  for (const std::size_t len : {CoalescedReceiver::kMss / 2, CoalescedReceiver::kMss}) {
    SCOPED_TRACE(len);
    CoalescedReceiver r;
    r.Burst({len});
    EXPECT_TRUE(r.acks_.empty());
    EXPECT_TRUE(r.conn_->delack_pending());
    r.sim_.RunFor(sim::Duration::Millis(100));  // the timer owes the ACK
    ASSERT_EQ(r.acks_.size(), 1u);
    EXPECT_EQ(r.acks_[0], CoalescedReceiver::kIrs + 1 + len);
    EXPECT_FALSE(r.conn_->delack_pending());
  }
}

// One integer counter of the receiving host ("b") in a bench run's
// per-host metrics snapshot; 0 if absent.
std::uint64_t ReceiverCounter(const std::string& metrics_json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t b = metrics_json.find("\"b\":");
  if (b == std::string::npos) return 0;
  const std::size_t at = metrics_json.find(key, b);
  return at == std::string::npos ? 0 : std::stoull(metrics_json.substr(at + key.size()));
}

// The Section 4.2 transfer over Fore ATM with the batched engine: the
// receiver's ACK clock must keep RFC 5681's one ACK per two full-sized
// segments even though GRO hands TCP far fewer deliveries than that.
TEST(DelayedAck, BatchedAtmTransferKeepsOneAckPerTwoFullSegments) {
  ScopedBatchMode on(true);
  constexpr std::size_t kBytes = 4 * 1024 * 1024;
  const auto atm = drivers::DeviceProfile::ForeAtm155();
  bench::RunObservability obs;
  ASSERT_GT(bench::PlexusTcpThroughputMbps(atm, sim::CostModel::Default1996(), kBytes, &obs), 0.0);
  const double mss = static_cast<double>(atm.mtu - 40);  // the bench's TcpConfig
  const double full_segment_pairs = static_cast<double>(kBytes) / (2.0 * mss);
  const auto receiver_frames = ReceiverCounter(obs.metrics_json, "ip.tx_packets");
  EXPECT_GE(static_cast<double>(receiver_frames) / full_segment_pairs, 1.0) << receiver_frames;
}

}  // namespace
}  // namespace proto
