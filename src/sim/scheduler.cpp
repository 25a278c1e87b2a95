#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace moonshot::sim {

namespace {
inline void fnv1a_fold(std::uint64_t& acc, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (v >> (8 * i)) & 0xff;
    acc *= 0x100000001b3ull;
  }
}
}  // namespace

TaskId Scheduler::schedule_at(TimePoint t, Callback cb) {
  return schedule_at(t, EventTag{}, std::move(cb));
}

TaskId Scheduler::schedule_at(TimePoint t, EventTag tag, Callback cb) {
  MOONSHOT_INVARIANT(t >= now_, "cannot schedule into the past");
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next_free;
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.tag = tag;
  s.state = State::kQueued;
  ++pending_;
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(s.gen, slot);
}

TaskId Scheduler::schedule_after(Duration d, Callback cb) {
  return schedule_at(now_ + d, std::move(cb));
}

TaskId Scheduler::schedule_after(Duration d, EventTag tag, Callback cb) {
  return schedule_at(now_ + d, tag, std::move(cb));
}

void Scheduler::append(LaneId id, LaneEvent ev) {
  Lane& lane = lanes_[id];
  MOONSHOT_INVARIANT(ev.t >= now_, "cannot schedule into the past");
  MOONSHOT_INVARIANT(lane.events.empty() || ev.t >= lane.events.back().t,
                     "lane times must not decrease");
  ev.seq = next_seq_++;
  ++pending_;
  if (lane.events.empty()) {  // a new head: key it
    heap_.push_back(Key{ev.t, ev.seq, 0, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  lane.events.push_back(ev);
}

void Scheduler::cancel(TaskId id) {
  // An already-run, unknown or lane-record id (a timer racing its own expiry)
  // fails the generation check (generations stay below 2^31), so it can
  // neither distort pending() nor hit the slot's next occupant.
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != (id >> 32) ||
      slots_[slot].state != State::kQueued)
    return;
  slots_[slot].state = State::kCancelled;
  --pending_;
}

void Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.state = State::kFree;
  if (++s.gen == 1u << 31) s.gen = 1;  // never 0, and clear of kLaneRecord
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::settle() {
  while (!heap_.empty() && heap_.front().lane == kNoLane &&
         slots_[heap_.front().slot].state == State::kCancelled) {
    release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (std::size_t c; (c = 2 * i + 1) < n; i = c) {
    if (c + 1 < n && Later{}(heap_[c], heap_[c + 1])) ++c;
    if (!Later{}(k, heap_[c])) break;
    heap_[i] = heap_[c];
  }
  heap_[i] = k;
}

void Scheduler::note_run(TimePoint t, std::uint64_t seq) {
  if (t > now_) now_ = t;
  --pending_;
  ++executed_;
  fnv1a_fold(fingerprint_, static_cast<std::uint64_t>(t.ns));
  fnv1a_fold(fingerprint_, seq);
}

void Scheduler::execute(const Key& key) {
  // Move the callback out and free the slot first: the callback may schedule
  // (growing slots_) and may cancel its own, now stale, id.
  Callback cb = std::move(slots_[key.slot].cb);
  release(key.slot);
  note_run(key.t, key.seq);
  cb();
}

void Scheduler::run_lane_record(std::size_t k, std::size_t i) {
  // Take record i out of the lane keyed at heap_[k] first: the handler may
  // append to the lane. On the hot path (k = 0, the head) a successor head
  // replaces the key in one sift-down; an emptied lane gives the key up.
  const LaneId id = heap_[k].lane;
  Lane& lane = lanes_[id];
  auto& events = lane.events;
  LaneEvent ev = events[i];
  if (i == lane.head) ++lane.head;
  else events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
  if (lane.head == events.size() || (lane.head >= 64 && 2 * lane.head >= events.size())) {
    events.erase(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(lane.head));
    lane.head = 0;  // the spent prefix is dropped once it outweighs the rest
  }
  heap_[k] = events.empty() ? heap_.back() : Key{events[lane.head].t, events[lane.head].seq, 0, id};
  if (events.empty()) heap_.pop_back();
  if (k != 0) std::make_heap(heap_.begin(), heap_.end(), Later{});  // a run_task() choice
  else if (!heap_.empty()) sift_down(0);
  note_run(ev.t, ev.seq);
  lanes_[id].handler(ev);
}

bool Scheduler::run_next() {
  if (!settle()) return false;
  const Key key = heap_.front();
  if (key.lane != kNoLane) {
    run_lane_record(0, lanes_[key.lane].head);
    return true;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  execute(key);
  return true;
}

void Scheduler::run_until(TimePoint limit) {
  while (settle() && heap_.front().t <= limit) run_next();
  if (now_ < limit) now_ = limit;
}

void Scheduler::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && run_next()) ++n;
}

template <class Fn>
void Scheduler::for_each_pending(Fn&& fn) const {
  for (std::size_t k = 0; k < heap_.size(); ++k) {
    if (const LaneId id = heap_[k].lane; id != kNoLane) {
      for (std::size_t i = lanes_[id].head; i < lanes_[id].events.size(); ++i) {
        const LaneEvent& e = lanes_[id].events[i];
        fn(PendingEvent{kLaneRecord | e.seq, e.t, e.seq, e.tag}, k, i);
      }
    } else if (const Slot& s = slots_[heap_[k].slot]; s.state == State::kQueued) {
      fn(PendingEvent{make_id(s.gen, heap_[k].slot), heap_[k].t, heap_[k].seq, s.tag}, k, 0);
    }
  }
}

std::vector<PendingEvent> Scheduler::frontier() const {
  std::vector<PendingEvent> out;
  out.reserve(pending_);
  for_each_pending([&out](const PendingEvent& e, std::size_t, std::size_t) { out.push_back(e); });
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) { return Later{}(b, a); });
  return out;
}

std::uint64_t Scheduler::run_internal(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  for (; ran < max_events; ++ran) {
    PendingEvent best;
    for_each_pending([&best](const PendingEvent& e, std::size_t, std::size_t) {
      if (e.tag.kind == EventTag::Kind::kInternal && (best.id == 0 || Later{}(best, e))) best = e;
    });
    if (best.id == 0) break;
    run_task(best.id);
  }
  return ran;
}

bool Scheduler::run_task(TaskId id) {
  std::size_t key = heap_.size(), index = 0;
  for_each_pending([&](const PendingEvent& e, std::size_t k, std::size_t i) {
    if (e.id == id) key = k, index = i;
  });
  if (key == heap_.size()) return false;
  if (heap_[key].lane != kNoLane) {
    run_lane_record(key, index);
    return true;
  }
  const Key k = heap_[key];
  heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(key));
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  execute(k);
  return true;
}

}  // namespace moonshot::sim
