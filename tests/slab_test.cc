// Slab allocator unit tests plus the PLEXUS_SLAB on/off identity harness.
//
// The unit half covers the contracts DESIGN.md §15 leans on: LIFO block
// reuse (hot blocks stay cache-warm), chunked growth under exhaustion,
// cross-size-class isolation in the arena, generation-checked handles in
// IndexPool, and intact accounting when the gate degrades slabs to plain
// operator new/delete.
//
// The identity half is the tentpole's safety argument: slab allocation is
// a wall-clock optimization only. A representative TCP scenario (lossy
// link, concurrent connections, retransmissions, TIME_WAIT churn) must
// produce byte-identical virtual-time results with slabs enabled and
// disabled. The gate may only be toggled at
// quiescent points — block provenance is decided at Alloc time — so the
// harness asserts InUse("mbuf") == 0 before every flip.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/medium.h"
#include "sim/slab.h"

namespace {

// Pins the gate for a test and restores "enabled" at scope exit, even when
// an assertion fails mid-test. Tests of pooled mechanics (freelists, chunk
// growth, class isolation) pin it ON so they still test the slab paths when
// the suite itself runs under PLEXUS_SLAB=off (check.sh's sixth pass);
// behavior-identity tests flip it both ways themselves.
struct SlabGateGuard {
  explicit SlabGateGuard(bool enabled = true) { sim::SlabConfig::SetEnabled(enabled); }
  ~SlabGateGuard() { sim::SlabConfig::SetEnabled(true); }
};

TEST(BlockSlab, ReusesFreedBlocksLifo) {
  SlabGateGuard guard;
  sim::BlockSlab slab("test.lifo", 64);
  void* a = slab.Alloc();
  void* b = slab.Alloc();
  ASSERT_NE(a, b);
  slab.Free(b);
  slab.Free(a);
  // LIFO: the most recently freed block comes back first.
  EXPECT_EQ(slab.Alloc(), a);
  EXPECT_EQ(slab.Alloc(), b);
  slab.Free(a);
  slab.Free(b);
  EXPECT_EQ(slab.stats().allocs, 4u);
  EXPECT_EQ(slab.stats().frees, 4u);
  EXPECT_EQ(slab.stats().in_use, 0u);
  EXPECT_EQ(slab.stats().peak_in_use, 2u);
  EXPECT_EQ(slab.stats().chunks, 1u);
}

TEST(BlockSlab, GrowsByChunksUnderExhaustion) {
  SlabGateGuard guard;
  // Small chunks so exhaustion is cheap to reach: 1024/64-byte blocks
  // per chunk (block size is rounded up to max_align_t).
  sim::BlockSlab slab("test.grow", 64, /*chunk_bytes=*/1024);
  const std::size_t per_chunk = 1024 / slab.block_size();
  ASSERT_GT(per_chunk, 0u);
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < 3 * per_chunk + 1; ++i) blocks.push_back(slab.Alloc());
  EXPECT_EQ(slab.stats().chunks, 4u);  // 3 full chunks + one block into the 4th
  EXPECT_EQ(slab.stats().peak_in_use, blocks.size());
  for (void* p : blocks) slab.Free(p);
  EXPECT_EQ(slab.stats().in_use, 0u);
  // Chunks never shrink; freed blocks recycle without new chunks.
  for (std::size_t i = 0; i < blocks.size(); ++i) (void)slab.Alloc();
  EXPECT_EQ(slab.stats().chunks, 4u);
}

TEST(BlockSlab, DisabledGateDegradesToHeapWithAccountingIntact) {
  SlabGateGuard guard(/*enabled=*/false);
  sim::BlockSlab slab("test.gated", 128);
  void* a = slab.Alloc();
  void* b = slab.Alloc();
  EXPECT_EQ(slab.stats().allocs, 2u);
  EXPECT_EQ(slab.stats().in_use, 2u);
  EXPECT_EQ(slab.stats().chunks, 0u);  // no chunk was carved: pure heap
  slab.Free(a);
  slab.Free(b);
  EXPECT_EQ(slab.stats().frees, 2u);
  EXPECT_EQ(slab.stats().in_use, 0u);
}

TEST(SizeClassArena, ClassesAreIsolatedAndOversizeFallsThrough) {
  SlabGateGuard guard;
  sim::SizeClassArena arena("test.arena");
  // One block per class: each class draws from its own slab.
  void* small = arena.Alloc(100);    // -> 192 class
  void* mid = arena.Alloc(600);      // -> 704 class
  void* big = arena.Alloc(2000);     // -> 2432 class
  void* huge = arena.Alloc(10'000);  // -> oversize passthrough
  EXPECT_EQ(arena.InUse(), 4u);

  // Cross-size isolation: freeing into one class must not make its block
  // visible to another class's free list.
  arena.Free(small, 100);
  void* mid2 = arena.Alloc(600);  // different class: cannot reuse `small`
  EXPECT_NE(mid2, small);
  void* small2 = arena.Alloc(150);  // same (192) class: LIFO reuse
  EXPECT_EQ(small2, small);

  arena.Free(small2, 150);
  arena.Free(mid, 600);
  arena.Free(mid2, 600);
  arena.Free(big, 2000);
  arena.Free(huge, 10'000);
  EXPECT_EQ(arena.InUse(), 0u);

  // Class mapping is by smallest-fitting class, oversize beyond the last.
  EXPECT_EQ(sim::SizeClassArena::ClassFor(1), 0);
  EXPECT_EQ(sim::SizeClassArena::ClassFor(192), 0);
  EXPECT_EQ(sim::SizeClassArena::ClassFor(193), 1);
  EXPECT_EQ(sim::SizeClassArena::ClassFor(2432), 4);
  EXPECT_EQ(sim::SizeClassArena::ClassFor(2433), -1);
}

TEST(IndexPool, GenerationInvalidatesStaleHandles) {
  sim::IndexPool<int> pool("test.pool");
  const std::uint32_t idx = pool.Alloc();
  const std::uint32_t gen = pool.gen(idx);
  pool.at(idx) = 42;
  EXPECT_TRUE(pool.LiveHandle(idx, gen));
  pool.Free(idx);
  // The slot is dead: the old (index, generation) handle no longer
  // resolves, even though the index will be recycled.
  EXPECT_FALSE(pool.LiveHandle(idx, gen));
  const std::uint32_t idx2 = pool.Alloc();
  EXPECT_EQ(idx2, idx);  // LIFO slot reuse
  EXPECT_NE(pool.gen(idx2), gen);
  EXPECT_TRUE(pool.LiveHandle(idx2, pool.gen(idx2)));
  EXPECT_FALSE(pool.LiveHandle(idx, gen));  // stale handle still dead
  pool.Free(idx2);
  EXPECT_EQ(pool.stats().in_use, 0u);
  EXPECT_EQ(pool.capacity(), 1u);
}

TEST(SlabRegistry, PrefixInUseCountsMatchingSlabsOnly) {
  sim::BlockSlab a("pfx.one", 32);
  sim::BlockSlab b("pfx.two", 32);
  sim::BlockSlab c("other", 32);
  void* pa = a.Alloc();
  void* pb = b.Alloc();
  void* pc = c.Alloc();
  EXPECT_EQ(sim::SlabRegistry::InUse("pfx."), 2u);
  EXPECT_GE(sim::SlabRegistry::InUse(""), 3u);  // global slabs may add more
  a.Free(pa);
  b.Free(pb);
  c.Free(pc);
  EXPECT_EQ(sim::SlabRegistry::InUse("pfx."), 0u);
}

// --- identity harness -------------------------------------------------------

struct ScenarioResult {
  std::uint64_t final_time_ns = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t frames_delivered = 0;
  int verified = 0;

  bool operator==(const ScenarioResult&) const = default;
};

// A deliberately eventful little run: 40 connections over a lossy segment,
// so retransmission timers, delayed ACKs, clones, and TIME_WAIT churn all
// execute — every mbuf/event allocation path the slabs serve.
ScenarioResult RunScenario() {
  sim::Simulator sim;
  drivers::EthernetSegment segment(sim);
  drivers::Faults faults;
  faults.drop_probability = 0.02;
  segment.set_faults(faults);

  const auto costs = sim::CostModel::Default1996();
  const auto profile = drivers::DeviceProfile::Ethernet10();
  core::PlexusHost server(sim, "server", costs, profile,
                          {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost client(sim, "client", costs, profile,
                          {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  server.AttachTo(segment);
  client.AttachTo(segment);
  server.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  client.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  server.arp().AddStatic(net::Ipv4Address(10, 0, 0, 2), net::MacAddress::FromId(2));
  client.arp().AddStatic(net::Ipv4Address(10, 0, 0, 1), net::MacAddress::FromId(1));

  constexpr int kConns = 40;
  std::vector<std::byte> payload(700);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 13 & 0xff);
  }

  ScenarioResult out;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> server_eps;
  std::vector<std::vector<std::byte>> received(kConns);
  int accepted = 0;
  EXPECT_TRUE(server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    const int slot = accepted++;
    ep->SetOnData([&, slot](std::span<const std::byte> data) {
      auto& buf = received[static_cast<std::size_t>(slot)];
      buf.insert(buf.end(), data.begin(), data.end());
    });
    ep->SetOnClose([&, slot, ep] {
      if (received[static_cast<std::size_t>(slot)] == payload) ++out.verified;
      ep->CloseStream();
    });
    server_eps.push_back(std::move(ep));
  }));

  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> conns(kConns);
  for (int i = 0; i < kConns; ++i) {
    sim.Schedule(sim::Duration::Micros(200) * i, [&, i] {
      client.Run([&, i] {
        auto& ep = conns[static_cast<std::size_t>(i)];
        ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
        ep->SetOnEstablished([&, i] {
          auto& cc = conns[static_cast<std::size_t>(i)];
          cc->Write(payload);
          cc->CloseStream();
        });
      });
    });
  }

  sim.Run();  // to full quiescence: 2MSL timers included
  out.final_time_ns = static_cast<std::uint64_t>(sim.Now().ns());
  out.timer_fires = sim.metrics().counter("sim.timer_fires").value();
  out.frames_delivered =
      client.host().metrics().counter("nic.rx_frames").value() +
      server.host().metrics().counter("nic.rx_frames").value();
  return out;
}

TEST(SlabIdentity, VirtualTimeIsByteIdenticalWithSlabsOnAndOff) {
  SlabGateGuard guard;
  // Quiescent point: nothing from previous runs may still hold a block,
  // or the flip would mis-route its eventual Free.
  ASSERT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);
  sim::SlabConfig::SetEnabled(true);
  const ScenarioResult on = RunScenario();

  ASSERT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);
  sim::SlabConfig::SetEnabled(false);
  const ScenarioResult off = RunScenario();

  ASSERT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);
  EXPECT_GT(on.verified, 0);
  EXPECT_EQ(on, off) << "slab gate changed virtual-time behavior: on={t="
                     << on.final_time_ns << " fires=" << on.timer_fires
                     << " frames=" << on.frames_delivered << " ok=" << on.verified
                     << "} off={t=" << off.final_time_ns << " fires=" << off.timer_fires
                     << " frames=" << off.frames_delivered << " ok=" << off.verified << "}";
}

TEST(SlabIdentity, EngineSlabsBalanceAfterScenarioTeardown) {
  ASSERT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);
  (void)RunScenario();
  // Teardown leak gate: hosts and simulator are gone; every pooled header
  // and segment body must be back on its free list.
  EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);
  const auto snap = sim::SlabRegistry::Snapshot();
  bool saw_hdr = false, saw_seg = false;
  for (const auto& s : snap) {
    if (s.name == "mbuf.hdr") {
      saw_hdr = true;
      EXPECT_GT(s.allocs, 0u);  // the run really went through the slab
    }
    if (s.name.rfind("mbuf.seg.", 0) == 0 && s.allocs > 0) saw_seg = true;
  }
  EXPECT_TRUE(saw_hdr);
  EXPECT_TRUE(saw_seg);
}

}  // namespace
