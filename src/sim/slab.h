// Typed slab / size-class arena allocation for the engine's hot paths.
//
// Generalizes the PR 5 pool idea (bounded, observable allocation) into the
// wall-clock domain: the simulator's per-event, per-packet heap traffic —
// mbuf headers, mbuf segment storage, timing-wheel nodes — is served from
// chunked free lists instead of malloc. An Alloc is a pointer pop, a Free a
// pointer push; chunks (64 KiB by default) amortize the real allocator to
// one call per ~hundreds of objects and keep same-type objects contiguous.
//
// Observability and safety:
//   * every slab registers itself in a process-global SlabRegistry with
//     per-slab counters (allocs / frees / in_use / peak / chunks); teardown
//     leak assertions (chaos_property_test, tcp_churn_test) check
//     in_use == 0 for the packet-path slabs after the simulation dies.
//   * PLEXUS_SLAB=off routes every slab through plain operator new/delete
//     (accounting intact) — the ablation that proves slab allocation changes
//     wall-clock only: all virtual-time outputs must be byte-identical,
//     enforced by slab_test's on/off identity harness and the BENCH_scale
//     sim-time gate in scripts/check.sh.
//   * slabs never shrink: freed objects recycle within their slab, chunks
//     live until the slab dies. Cross-slab isolation is structural (a slab
//     only hands out blocks from its own chunks).
//
// Single-threaded by design, like the simulator (and like sim::Profiler,
// whose lazy env-resolve pattern SlabConfig reuses). Header-only so net/
// can use it without linking sim.
#ifndef PLEXUS_SIM_SLAB_H_
#define PLEXUS_SIM_SLAB_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace sim {

// Runtime gate: PLEXUS_SLAB=off|0 degrades every slab to operator
// new/delete. Resolved lazily on first use; SetEnabled overrides (tests).
// A block's provenance (chunk vs heap) is decided at Alloc time, so the
// gate may only be flipped at quiescent points — no blocks outstanding in
// any slab (SlabRegistry::InUse() == 0); slab_test's identity harness
// asserts that before each toggle.
class SlabConfig {
 public:
  static bool enabled() {
    if (state_ == 0) [[unlikely]] ResolveFromEnv();
    return state_ == 2;
  }
  static void SetEnabled(bool on) { state_ = on ? 2 : 1; }

 private:
  static void ResolveFromEnv() {
    const char* env = std::getenv("PLEXUS_SLAB");
    const bool off = env != nullptr &&
                     (env[0] == '0' || ((env[0] == 'o' || env[0] == 'O') &&
                                        (env[1] == 'f' || env[1] == 'F')));
    state_ = off ? 1 : 2;
  }
  static inline int state_ = 0;  // 0 unresolved, 1 disabled, 2 enabled
};

struct SlabStats {
  std::string name;
  std::size_t block_size = 0;   // bytes per object slot (0: variable/oversize)
  std::uint64_t allocs = 0;     // objects ever handed out
  std::uint64_t frees = 0;      // objects returned
  std::size_t in_use = 0;       // allocs - frees
  std::size_t peak_in_use = 0;
  std::size_t chunks = 0;       // backing chunks obtained from the real heap
};

// Non-template base: what the registry sees of every slab.
class SlabBase {
 public:
  const SlabStats& stats() const { return stats_; }

 protected:
  SlabStats stats_;
};

// Process-global roster of live slabs. Engine slabs are function-local
// statics and stay registered for the process lifetime; test-local slabs
// unregister on destruction.
class SlabRegistry {
 public:
  static void Register(const SlabBase* slab) { All().push_back(slab); }

  static void Unregister(const SlabBase* slab) {
    auto& all = All();
    all.erase(std::remove(all.begin(), all.end(), slab), all.end());
  }

  static std::vector<SlabStats> Snapshot() {
    std::vector<SlabStats> out;
    for (const SlabBase* s : All()) out.push_back(s->stats());
    return out;
  }

  // Outstanding objects across every slab whose name starts with `prefix`
  // (empty prefix: all slabs). The teardown leak assertion.
  static std::size_t InUse(const std::string& prefix = "") {
    std::size_t n = 0;
    for (const SlabBase* s : All()) {
      if (s->stats().name.compare(0, prefix.size(), prefix) == 0) {
        n += s->stats().in_use;
      }
    }
    return n;
  }

 private:
  static std::vector<const SlabBase*>& All() {
    static std::vector<const SlabBase*> all;
    return all;
  }
};

// A slab of fixed-size blocks. Free blocks form an intrusive LIFO list
// (the link lives in the free block's own bytes), so blocks are at least
// pointer-sized; chunks are arrays of blocks obtained once and kept.
class BlockSlab : public SlabBase {
 public:
  BlockSlab(std::string name, std::size_t block_size,
            std::size_t chunk_bytes = 64 * 1024)
      : block_size_(Align(block_size)),
        blocks_per_chunk_(chunk_bytes / Align(block_size)) {
    assert(blocks_per_chunk_ > 0);
    stats_.name = std::move(name);
    stats_.block_size = block_size_;
    SlabRegistry::Register(this);
  }
  ~BlockSlab() { SlabRegistry::Unregister(this); }
  BlockSlab(const BlockSlab&) = delete;
  BlockSlab& operator=(const BlockSlab&) = delete;

  void* Alloc() {
    ++stats_.allocs;
    if (++stats_.in_use > stats_.peak_in_use) stats_.peak_in_use = stats_.in_use;
    if (!SlabConfig::enabled()) [[unlikely]] {
      return ::operator new(block_size_);
    }
    if (free_ == nullptr) [[unlikely]] Grow();
    FreeNode* n = free_;
    free_ = n->next;
    return n;
  }

  void Free(void* p) {
    assert(stats_.in_use > 0 && "slab double free");
    ++stats_.frees;
    --stats_.in_use;
    if (!SlabConfig::enabled()) [[unlikely]] {
      ::operator delete(p);
      return;
    }
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = free_;
    free_ = n;
  }

  std::size_t block_size() const { return block_size_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t Align(std::size_t n) {
    const std::size_t a = alignof(std::max_align_t);
    const std::size_t m = n < sizeof(FreeNode) ? sizeof(FreeNode) : n;
    return (m + a - 1) / a * a;
  }

  void Grow() {
    chunks_.push_back(
        std::make_unique<std::byte[]>(block_size_ * blocks_per_chunk_));
    std::byte* base = chunks_.back().get();
    // Thread the fresh chunk onto the free list in address order.
    for (std::size_t i = blocks_per_chunk_; i > 0; --i) {
      FreeNode* n = reinterpret_cast<FreeNode*>(base + (i - 1) * block_size_);
      n->next = free_;
      free_ = n;
    }
    ++stats_.chunks;
  }

  std::size_t block_size_;
  std::size_t blocks_per_chunk_;
  FreeNode* free_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

// Typed slab: raw storage slots for T (construction is the caller's — the
// usual pattern is a class-level operator new/delete pair, see net::Mbuf).
template <typename T>
class Slab : public BlockSlab {
 public:
  explicit Slab(std::string name) : BlockSlab(std::move(name), sizeof(T)) {}
};

// Index pool: a slab variant whose handles are (index, generation) pairs
// instead of pointers, for queues that encode cancellation ids as integers
// (the timing wheel's EventId). Slots live in
// one growing array — same cache behavior as a slab chunk — and each Free
// bumps the slot's generation so stale handles compare invalid instead of
// aliasing a recycled slot. Unlike BlockSlab this pool is NOT degraded by
// PLEXUS_SLAB=off: handle encoding is identity-bearing, and the pool is
// deterministic either way (the ablation targets malloc-backed slabs).
template <typename T>
class IndexPool : public SlabBase {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  explicit IndexPool(std::string name) {
    stats_.name = std::move(name);
    stats_.block_size = sizeof(Slot);
    SlabRegistry::Register(this);
  }
  ~IndexPool() { SlabRegistry::Unregister(this); }
  IndexPool(const IndexPool&) = delete;
  IndexPool& operator=(const IndexPool&) = delete;

  std::uint32_t Alloc() {
    ++stats_.allocs;
    if (++stats_.in_use > stats_.peak_in_use) stats_.peak_in_use = stats_.in_use;
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].next_free;
      slots_[idx].live = true;
      return idx;
    }
    assert(slots_.size() < kNil - 1 && "index pool exhausted");
    if (slots_.size() == slots_.capacity()) ++stats_.chunks;
    slots_.emplace_back();
    slots_.back().live = true;
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void Free(std::uint32_t idx) {
    Slot& s = slots_[idx];
    assert(s.live && "index pool double free");
    ++stats_.frees;
    --stats_.in_use;
    s.live = false;
    ++s.gen;  // invalidate outstanding handles for this slot
    s.next_free = free_head_;
    free_head_ = idx;
  }

  T& at(std::uint32_t idx) { return slots_[idx].value; }
  const T& at(std::uint32_t idx) const { return slots_[idx].value; }

  std::uint32_t gen(std::uint32_t idx) const { return slots_[idx].gen; }

  // True iff `idx` is a currently-allocated slot whose generation matches.
  bool LiveHandle(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slots_.size() && slots_[idx].live && slots_[idx].gen == gen;
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    T value{};
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
};

// Size-class arena for variable-length blocks (mbuf segment storage). A
// request is served by the smallest class that fits; oversize requests
// (beyond the largest class) fall through to operator new, counted in the
// "oversize" pseudo-slab so they remain visible in the registry.
class SizeClassArena {
 public:
  // Classes sized for the engine's segment population: small control
  // packets (ACK/SYN/ARP) land in the 192/320 classes, a full
  // headroom+cluster segment block (~2.2 KiB) in the largest.
  static constexpr std::size_t kClassSizes[] = {192, 320, 704, 1472, 2432};
  static constexpr int kNumClasses = 5;

  explicit SizeClassArena(const std::string& prefix)
      : class_{{prefix + ".192", kClassSizes[0]},
               {prefix + ".320", kClassSizes[1]},
               {prefix + ".704", kClassSizes[2]},
               {prefix + ".1472", kClassSizes[3]},
               {prefix + ".2432", kClassSizes[4]}},
        oversize_(prefix + ".oversize") {}

  void* Alloc(std::size_t bytes) {
    const int c = ClassFor(bytes);
    if (c >= 0) [[likely]] return class_[static_cast<std::size_t>(c)].Alloc();
    SlabStats& s = oversize_.mut();
    ++s.allocs;
    if (++s.in_use > s.peak_in_use) s.peak_in_use = s.in_use;
    return ::operator new(bytes);
  }

  void Free(void* p, std::size_t bytes) {
    const int c = ClassFor(bytes);
    if (c >= 0) [[likely]] {
      class_[static_cast<std::size_t>(c)].Free(p);
      return;
    }
    SlabStats& s = oversize_.mut();
    assert(s.in_use > 0 && "arena oversize double free");
    ++s.frees;
    --s.in_use;
    ::operator delete(p);
  }

  // Outstanding blocks across every class including oversize.
  std::size_t InUse() const {
    std::size_t n = oversize_.stats().in_use;
    for (const auto& s : class_) n += s.stats().in_use;
    return n;
  }

  static int ClassFor(std::size_t bytes) {
    for (int c = 0; c < kNumClasses; ++c) {
      if (bytes <= kClassSizes[c]) return c;
    }
    return -1;
  }

 private:
  // Oversize bookkeeping is a counters-only registry entry (no free list —
  // the blocks go straight to operator new/delete).
  class OversizeSlab : public SlabBase {
   public:
    explicit OversizeSlab(std::string name) {
      stats_.name = std::move(name);
      SlabRegistry::Register(this);
    }
    ~OversizeSlab() { SlabRegistry::Unregister(this); }
    SlabStats& mut() { return stats_; }
  };

  BlockSlab class_[kNumClasses];
  OversizeSlab oversize_;
};

}  // namespace sim

#endif  // PLEXUS_SIM_SLAB_H_
