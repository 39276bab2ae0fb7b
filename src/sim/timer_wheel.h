// Hierarchical timing wheel: the simulator's O(1) event queue.
//
// Eight levels of 256 slots each cover the full 64-bit nanosecond horizon
// (level L indexes bits [8L, 8L+8) of the deadline), so arbitrarily long
// RTO / keepalive / 2MSL timers need no separate overflow list — they simply
// land on a high level and cascade down as the cursor approaches them.
//
// Operations:
//   Schedule   O(1): radix placement by the highest byte in which the
//              deadline differs from the cursor.
//   Cancel     O(1) and *eager*: the entry is removed (swap-remove from its
//              slot, node returned to the pool) the moment it is cancelled,
//              so dead timers never occupy queue space (a binary heap with
//              lazy cancellation keeps them until they surface or compact).
//   Pop        amortized O(levels): each entry moves to a strictly lower
//              level at most kLevels-1 times over its lifetime.
//
// Determinism. The pop order is exactly (deadline, seq): the cursor invariant
// (cursor <= every pending deadline, advanced only to popped deadlines)
// guarantees that after cascading the cursor's own slot on every level, each
// entry sits at the level/slot its deadline implies relative to the cursor.
// Levels are then strictly ordered in time, slots within a level are ordered,
// and a level-0 slot holds exactly one deadline, inside which the minimum
// seq is selected — byte-for-byte the firing order of a priority queue keyed
// on (deadline, seq), which tests/timer_wheel_test.cc checks against such a
// reference model. See DESIGN.md section 11 for the invariant argument.
//
// Allocation: nodes live in a sim::IndexPool slab ("sched.wheel_node" in the
// slab registry) and callbacks are sim::EventFn — inline-capture callables —
// so arming a timer allocates nothing once the pool is warm. EventIds encode
// (pool index, generation): Cancel/Contains are two array reads, and
// generations make stale ids (fired or cancelled, slot since reused) compare
// invalid instead of aliasing.
#ifndef PLEXUS_SIM_TIMER_WHEEL_H_
#define PLEXUS_SIM_TIMER_WHEEL_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/slab.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// The scheduler's callback type. 48 inline bytes hold every hot-path capture
// the engine schedules — the largest is TcpConnection::ScheduleTimer's
// [this, trace_name, armed_by, handler] at 40 — while keeping a wheel node
// under a cache line and a half. Oversized captures (disk requests) heap-box
// transparently, counted by SmallFnHeapFallbacks.
using EventFn = SmallFn<void(), 48>;

class TimerWheel {
 public:
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 8;  // 8 x 8 bits: the whole int64 horizon
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;

  TimerWheel() : pool_("sched.wheel_node") {}
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Inserts an entry. `seq` breaks ties among equal deadlines (FIFO).
  // `when` must be >= cursor(); the Simulator clamps to Now() first.
  // Defined inline below: schedule/cancel are the per-ACK hot path.
  EventId Schedule(TimePoint when, std::uint64_t seq, EventFn fn);

  // Eagerly removes a pending entry. Returns true if `id` was pending;
  // fired, cancelled, and invalid ids are safe no-ops.
  bool Cancel(EventId id);

  bool Contains(EventId id) const;

  // If the earliest entry (ties broken by seq) is due at or before
  // `horizon`, pops it into *when / *fn and returns true. Advances the
  // cursor to the popped deadline.
  bool PopDueBefore(TimePoint horizon, TimePoint* when, EventFn* fn);

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  // Total entry moves between levels; cascade work is bounded by
  // (kLevels - 1) * total insertions.
  std::uint64_t cascade_moves() const { return cascade_moves_; }
  TimePoint cursor() const { return TimePoint::FromNanos(cursor_); }

 private:
  struct Node {
    std::int64_t when = 0;
    std::uint64_t seq = 0;
    EventFn fn;
    std::uint32_t pos = 0;        // index within its slot vector
    std::uint8_t level = 0;
    std::uint8_t slot_byte = 0;   // slot index within the level
  };

  int LevelFor(std::int64_t when) const;
  int CursorSlot(int level) const {
    return static_cast<int>(
        (static_cast<std::uint64_t>(cursor_) >> (level * kLevelBits)) &
        (kSlotsPerLevel - 1));
  }
  int FirstSlot(int level) const;      // first occupied slot, or -1
  void Place(std::uint32_t idx);       // file node under the current cursor
  void RemoveFromSlot(std::uint32_t idx);
  void CascadeSlot(int level, int slot);
  bool DecodeId(EventId id, std::uint32_t* idx) const;

  IndexPool<Node> pool_;
  std::vector<std::uint32_t> slots_[kLevels][kSlotsPerLevel];
  std::uint64_t bitmap_[kLevels][kSlotsPerLevel / 64] = {};
  std::vector<std::uint32_t> scratch_;  // cascade staging, reused
  std::int64_t cursor_ = 0;
  std::size_t live_ = 0;
  std::uint64_t cascade_moves_ = 0;
};

// --- inline hot path (schedule / cancel, the per-ACK disarm/re-arm pair) ----

inline int TimerWheel::LevelFor(std::int64_t when) const {
  assert(when >= cursor_ && "deadline behind the wheel cursor");
  const std::uint64_t diff =
      static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(cursor_);
  if (diff == 0) return 0;
  return (63 - std::countl_zero(diff)) / kLevelBits;
}

inline void TimerWheel::Place(std::uint32_t idx) {
  Node& n = pool_.at(idx);
  const int level = LevelFor(n.when);
  const int slot = static_cast<int>(
      (static_cast<std::uint64_t>(n.when) >> (level * kLevelBits)) &
      (kSlotsPerLevel - 1));
  std::vector<std::uint32_t>& vec = slots_[level][slot];
  n.level = static_cast<std::uint8_t>(level);
  n.slot_byte = static_cast<std::uint8_t>(slot);
  n.pos = static_cast<std::uint32_t>(vec.size());
  vec.push_back(idx);
  bitmap_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

inline void TimerWheel::RemoveFromSlot(std::uint32_t idx) {
  Node& n = pool_.at(idx);
  std::vector<std::uint32_t>& vec = slots_[n.level][n.slot_byte];
  const std::uint32_t moved = vec.back();
  vec.pop_back();
  if (moved != idx) {  // swap-remove: fix up the entry that took our place
    vec[n.pos] = moved;
    pool_.at(moved).pos = n.pos;
  }
  if (vec.empty()) {
    bitmap_[n.level][n.slot_byte >> 6] &=
        ~(std::uint64_t{1} << (n.slot_byte & 63));
  }
}

inline bool TimerWheel::DecodeId(EventId id, std::uint32_t* idx) const {
  if (id == kInvalidEventId) return false;
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > pool_.capacity()) return false;
  const std::uint32_t i = static_cast<std::uint32_t>(slot_plus_one - 1);
  if (!pool_.LiveHandle(i, static_cast<std::uint32_t>(id))) return false;
  *idx = i;
  return true;
}

inline EventId TimerWheel::Schedule(TimePoint when, std::uint64_t seq,
                                    EventFn fn) {
  const std::uint32_t idx = pool_.Alloc();
  Node& n = pool_.at(idx);
  n.when = when.ns();
  n.seq = seq;
  n.fn = std::move(fn);
  Place(idx);
  ++live_;
  return (static_cast<EventId>(idx) + 1) << 32 |
         static_cast<EventId>(pool_.gen(idx));
}

inline bool TimerWheel::Cancel(EventId id) {
  std::uint32_t idx;
  if (!DecodeId(id, &idx)) return false;
  RemoveFromSlot(idx);
  pool_.at(idx).fn = nullptr;  // release the closure's captures immediately
  pool_.Free(idx);
  --live_;
  return true;
}

inline bool TimerWheel::Contains(EventId id) const {
  std::uint32_t idx;
  return DecodeId(id, &idx);
}

}  // namespace sim

#endif  // PLEXUS_SIM_TIMER_WHEEL_H_
