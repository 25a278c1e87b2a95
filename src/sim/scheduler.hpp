// Discrete-event simulation engine.
//
// A Scheduler owns the simulated clock and a binary min-heap of 24-byte
// (time, seq, ref) keys. Equal timestamps run in scheduling order (seq),
// which — together with seeded PRNGs — makes every run bit-reproducible.
// A key refers to either
//  * a slot event: a callback and its EventTag in a free-listed slab. A
//    TaskId is (slot generation, slot); the generation is bumped whenever a
//    slot is freed, so cancel() marks only the live event it names (the heap
//    drops marked keys as they surface) and a stale id is a no-op; or
//  * a lane: an append-only FIFO of inline LaneEvent records with
//    non-decreasing times, run by the lane's one handler and never
//    cancelled. Only its head is keyed; when the head runs, its successor
//    takes the key in one sift-down (net/network.hpp: a lane per receiver).
//
// Events may carry an EventTag classifying them as *choice points* for the
// model-checking explorer (src/mc/): message deliveries and protocol timers.
// Normal runs ignore tags entirely; the explorer enumerates the pending
// frontier() (every lane record included) and picks which tagged event runs
// next via run_task().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "support/time.hpp"

namespace moonshot::sim {

/// Handle for cancelling a scheduled event: the event's slab slot in the low
/// 32 bits and the slot's generation (never 0, below 2^31) in the high 32, so
/// 0 is never a valid id and an id outlives its event harmlessly. frontier()
/// names a lane record by its seq with the top bit set.
using TaskId = std::uint64_t;

/// Index of a lane opened with Scheduler::open_lane().
using LaneId = std::uint32_t;
inline constexpr LaneId kNoLane = UINT32_MAX;

/// Classification of a scheduled event for systematic exploration. Untagged
/// (kInternal) events are deterministic bookkeeping the explorer always runs
/// eagerly in (time, seq) order; tagged events are the nondeterminism the
/// explorer controls.
struct EventTag {
  enum class Kind : std::uint8_t {
    kInternal = 0,  // bookkeeping: not a choice point
    kDelivery = 1,  // a message arriving at `node` from `peer`
    kTimer = 2,     // a protocol timer owned by `node`
  };
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  Kind kind = Kind::kInternal;
  std::uint8_t type = 0;       // message wire-type index, for deliveries
  std::uint32_t node = kNone;  // receiver (delivery) / owner (timer)
  std::uint32_t peer = kNone;  // sender, for deliveries

  static EventTag delivery(std::uint32_t to, std::uint32_t from, std::uint8_t type) {
    return EventTag{Kind::kDelivery, type, to, from};
  }
  static EventTag timer(std::uint32_t node) { return EventTag{Kind::kTimer, 0, node, kNone}; }
};

/// One lane record: 32 trivially copyable bytes, so a lane's vector moves
/// records with memmove. The scheduler reads t, seq and tag; `aux` and any
/// tag field the scheduler ignores belong to the lane's handler.
struct LaneEvent {
  TimePoint t;
  std::uint64_t seq = 0;  // assigned by Scheduler::append()
  EventTag tag;
  std::uint32_t aux = 0;
};
static_assert(sizeof(LaneEvent) == 32, "a lane record is half a cache line");
static_assert(std::is_trivially_copyable_v<LaneEvent>);

/// A pending (not yet run, not cancelled) event as seen by frontier().
struct PendingEvent {
  TaskId id = 0;
  TimePoint t;
  std::uint64_t seq = 0;
  EventTag tag;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;
  using LaneHandler = std::function<void(LaneEvent&)>;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a cancellable id.
  TaskId schedule_at(TimePoint t, Callback cb);
  TaskId schedule_at(TimePoint t, EventTag tag, Callback cb);

  /// Schedules `cb` after `d` from now.
  TaskId schedule_after(Duration d, Callback cb);
  TaskId schedule_after(Duration d, EventTag tag, Callback cb);

  /// Opens an empty lane whose records `handler` runs.
  LaneId open_lane(LaneHandler handler) {
    lanes_.push_back(Lane{{}, 0, std::move(handler)});
    return static_cast<LaneId>(lanes_.size() - 1);
  }

  /// Appends `ev` to `lane`, stamping its seq. `ev.t` must be >= now and >=
  /// the time of the lane's last pending record.
  void append(LaneId lane, LaneEvent ev);

  /// Cancels a pending event. Cancelling an already-run or unknown id is a
  /// harmless no-op (timers race with their own expiry).
  void cancel(TaskId id);

  /// Executes the next event, advancing the clock. Returns false if empty.
  bool run_next();

  /// Runs events until the queue is empty or the clock would pass `limit`.
  /// The clock is left at min(limit, time of last event run).
  void run_until(TimePoint limit);

  /// Runs for `d` simulated time from now.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely (bounded by `max_events` as a runaway guard).
  void run_all(std::uint64_t max_events = UINT64_MAX);

  /// The pending-event frontier in deterministic (time, seq) order, excluding
  /// cancelled entries. This is the explorer's view of the enabled set; it is
  /// O(pending · log pending) and intended for small model-checking worlds.
  std::vector<PendingEvent> frontier() const;

  /// Executes the pending event `id` out of queue order (a model-checker
  /// choice). The clock advances to max(now, event time) — choosing a later
  /// event models the earlier ones being delayed, not dropped. Returns false
  /// for unknown or cancelled ids.
  bool run_task(TaskId id);

  /// Eagerly runs every pending kInternal event — in (time, seq) order,
  /// including ones newly scheduled along the way — until only tagged events
  /// remain. The explorer calls this between choices so that deterministic
  /// bookkeeping (network hops, self-deliveries) never appears as a choice
  /// point and every in-flight delivery surfaces on the frontier. Returns the
  /// number of events run; `max_events` is a runaway guard.
  std::uint64_t run_internal(std::uint64_t max_events = 1 << 20);

  std::size_t pending() const { return pending_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Order-sensitive digest of the execution so far: folds the (time, seq) of
  /// every executed event into an FNV-1a accumulator. Two runs of the same
  /// seeded simulation must end with identical fingerprints; the chaos
  /// replay machinery uses this to assert bit-identical re-runs.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  static constexpr TaskId kLaneRecord = TaskId{1} << 63;

  struct Key {
    TimePoint t;
    std::uint64_t seq;      // tie-breaker: FIFO among equal timestamps
    std::uint32_t slot;     // index into slots_ for a slot event
    LaneId lane = kNoLane;  // index into lanes_ for a lane head
  };
  struct Later {  // over Key and PendingEvent
    template <class E>
    bool operator()(const E& a, const E& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  enum class State : std::uint8_t { kFree, kQueued, kCancelled };
  struct Slot {
    Callback cb;
    EventTag tag;
    std::uint32_t gen = 1;        // bumped on release; part of the TaskId
    std::uint32_t next_free = 0;  // free-list link while kFree
    State state = State::kFree;
  };
  struct Lane {
    std::vector<LaneEvent> events;  // [head, size) pending, in (t, seq) order
    std::size_t head = 0;
    LaneHandler handler;
  };

  static TaskId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<TaskId>(gen) << 32) | slot;
  }
  /// Returns `slot` to the free list under a new generation.
  void release(std::uint32_t slot);
  /// Pops cancelled keys off the heap top; true if a live event remains.
  bool settle();
  void sift_down(std::size_t i);
  /// Advances the clock to `t` (never backwards) and folds (t, seq).
  void note_run(TimePoint t, std::uint64_t seq);
  void execute(const Key& key);
  /// Runs record `i` of the lane keyed at heap_[k].
  void run_lane_record(std::size_t k, std::size_t i);
  /// Calls fn(event, heap index, lane index) for every pending event.
  template <class Fn>
  void for_each_pending(Fn&& fn) const;

  // Min-heap by Later via std::push_heap/pop_heap; a plain vector so that
  // frontier() can enumerate and run_task() can extract arbitrary entries.
  std::vector<Key> heap_;
  std::vector<Slot> slots_;  // grows on demand; freed slots are reused
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  std::uint32_t free_head_ = kNoSlot;
  std::deque<Lane> lanes_;   // a deque: a running handler may open a lane
  std::size_t pending_ = 0;  // queued slot events + lane records
  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace moonshot::sim
