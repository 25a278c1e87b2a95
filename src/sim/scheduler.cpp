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

const Scheduler::Slot* Scheduler::live(TaskId id) const {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return nullptr;
  const Slot& s = slots_[slot];
  return s.gen == (id >> 32) && s.state == State::kQueued ? &s : nullptr;
}

void Scheduler::cancel(TaskId id) {
  // An already-run or unknown id (a timer racing its own expiry) fails the
  // generation check, so it can neither distort pending() nor hit the slot's
  // next occupant.
  if (!live(id)) return;
  slots_[static_cast<std::uint32_t>(id)].state = State::kCancelled;
  ++cancelled_;
}

void Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.state = State::kFree;
  if (++s.gen == 0) s.gen = 1;  // 0 would make make_id(gen, 0) == 0
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::settle() {
  while (!heap_.empty() && slots_[heap_.front().slot].state == State::kCancelled) {
    release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --cancelled_;
  }
  return !heap_.empty();
}

void Scheduler::execute(const Key& key) {
  // Move the callback out and free the slot first: the callback may schedule
  // (growing slots_) and may cancel its own, now stale, id.
  Callback cb = std::move(slots_[key.slot].cb);
  release(key.slot);
  if (key.t > now_) now_ = key.t;
  ++executed_;
  fnv1a_fold(fingerprint_, static_cast<std::uint64_t>(key.t.ns));
  fnv1a_fold(fingerprint_, key.seq);
  cb();
}

bool Scheduler::run_next() {
  if (!settle()) return false;
  const Key key = heap_.front();
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

std::vector<PendingEvent> Scheduler::frontier() const {
  std::vector<PendingEvent> out;
  out.reserve(heap_.size());
  for (const Key& k : heap_) {
    const Slot& s = slots_[k.slot];
    if (s.state != State::kQueued) continue;
    out.push_back(PendingEvent{make_id(s.gen, k.slot), k.t, k.seq, s.tag});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t Scheduler::run_internal(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events) {
    const Key* best = nullptr;
    for (const Key& k : heap_) {
      const Slot& s = slots_[k.slot];
      if (s.state != State::kQueued || s.tag.kind != EventTag::Kind::kInternal) continue;
      if (!best || Later{}(*best, k)) best = &k;
    }
    if (!best) break;
    run_task(make_id(slots_[best->slot].gen, best->slot));
    ++ran;
  }
  return ran;
}

bool Scheduler::run_task(TaskId id) {
  if (!live(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [slot](const Key& k) { return k.slot == slot; });
  MOONSHOT_INVARIANT(it != heap_.end(), "queued slot missing from heap");
  const Key key = *it;
  heap_.erase(it);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  execute(key);
  return true;
}

}  // namespace moonshot::sim
