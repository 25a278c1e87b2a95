#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/prng.hpp"

namespace moonshot::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{30}, [&] { order.push_back(3); });
  s.schedule_at(TimePoint{10}, [&] { order.push_back(1); });
  s.schedule_at(TimePoint{20}, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns, 30);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.schedule_at(TimePoint{100}, [&, i] { order.push_back(i); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesNow) {
  Scheduler s;
  TimePoint fired{};
  s.schedule_at(TimePoint{50}, [&] {
    s.schedule_after(Duration(25), [&] { fired = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired.ns, 75);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const TaskId id = s.schedule_at(TimePoint{10}, [&] { ran = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelUnknownIsNoop) {
  Scheduler s;
  s.cancel(9999);
  bool ran = false;
  s.schedule_at(TimePoint{5}, [&] { ran = true; });
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RunUntilStopsAtLimit) {
  Scheduler s;
  int count = 0;
  s.schedule_at(TimePoint{10}, [&] { ++count; });
  s.schedule_at(TimePoint{20}, [&] { ++count; });
  s.schedule_at(TimePoint{30}, [&] { ++count; });
  s.run_until(TimePoint{20});
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now().ns, 20);
  s.run_all();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(TimePoint{500});
  EXPECT_EQ(s.now().ns, 500);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_after(Duration(1), recurse);
  };
  s.schedule_at(TimePoint{0}, recurse);
  s.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.events_executed(), 10u);
}

TEST(Scheduler, RunAllBounded) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_after(Duration(1), forever); };
  s.schedule_at(TimePoint{0}, forever);
  s.run_all(100);
  EXPECT_EQ(s.events_executed(), 100u);
}

// --- cancel racing its own expiry ---------------------------------------------

TEST(Scheduler, CancelFromInsideOwnCallbackIsNoop) {
  // A timer handler cancelling its own (already firing) id — the classic
  // re-arm race — must neither crash nor distort pending().
  Scheduler s;
  int runs = 0;
  TaskId self = 0;
  self = s.schedule_at(TimePoint{10}, [&] {
    ++runs;
    s.cancel(self);
  });
  s.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelAfterExpiryDoesNotPoisonLaterTasks) {
  // Cancelling an id that already ran must not leave a stale tombstone that
  // could suppress a future task or skew the pending() count.
  Scheduler s;
  const TaskId first = s.schedule_at(TimePoint{10}, [] {});
  s.run_all();
  s.cancel(first);  // raced: the expiry already happened
  bool ran = false;
  s.schedule_at(TimePoint{20}, [&] { ran = true; });
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelledHeadIsSkippedByRunUntil) {
  // run_until must lazily discard a cancelled event sitting at the queue
  // head without executing it or counting it as progress.
  Scheduler s;
  bool cancelled_ran = false;
  int live_runs = 0;
  const TaskId doomed = s.schedule_at(TimePoint{10}, [&] { cancelled_ran = true; });
  s.schedule_at(TimePoint{20}, [&] { ++live_runs; });
  s.cancel(doomed);
  s.run_until(TimePoint{50});
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(live_runs, 1);
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

// --- run_until clock semantics ------------------------------------------------

TEST(Scheduler, RunUntilClockNeverPassesLimit) {
  // With work queued beyond the limit, the clock parks exactly at the limit
  // (not at the next event's time) so phased runs compose.
  Scheduler s;
  s.schedule_at(TimePoint{10}, [] {});
  s.schedule_at(TimePoint{500}, [] {});
  s.run_until(TimePoint{100});
  EXPECT_EQ(s.now().ns, 100);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunUntilExecutesEventAtExactLimit) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(TimePoint{100}, [&] { ran = true; });
  s.run_until(TimePoint{100});
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now().ns, 100);
}

TEST(Scheduler, RunUntilWithEarlierLimitKeepsClock) {
  // A limit already in the past is a no-op: the clock is monotone.
  Scheduler s;
  s.run_until(TimePoint{100});
  s.run_until(TimePoint{40});
  EXPECT_EQ(s.now().ns, 100);
}

TEST(Scheduler, RunUntilTracksLastEventThenLimit) {
  // Mid-run the clock follows event times; at return it is exactly
  // min(limit, +inf) = limit, even if the last event fired earlier.
  Scheduler s;
  std::int64_t at_event = -1;
  s.schedule_at(TimePoint{30}, [&] { at_event = s.now().ns; });
  s.run_until(TimePoint{200});
  EXPECT_EQ(at_event, 30);
  EXPECT_EQ(s.now().ns, 200);
}

TEST(Scheduler, SchedulingIntoThePastAborts) {
  Scheduler s;
  s.schedule_at(TimePoint{100}, [] {});
  s.run_all();
  EXPECT_DEATH(s.schedule_at(TimePoint{50}, [] {}), "past");
}

TEST(Scheduler, FrontierIsDeterministicAndSorted) {
  // The explorer's enabled set: identical schedulers report identical
  // frontiers, in strict (time, seq) order, with cancelled entries absent.
  auto build = [] {
    auto s = std::make_unique<Scheduler>();
    s->schedule_at(TimePoint{30}, EventTag::delivery(1, 0, 3), [] {});
    s->schedule_at(TimePoint{10}, EventTag::timer(2), [] {});
    s->schedule_at(TimePoint{30}, EventTag::delivery(2, 1, 5), [] {});
    s->schedule_at(TimePoint{20}, [] {});  // untagged: kInternal
    return s;
  };
  auto a = build();
  auto b = build();
  const auto fa = a->frontier();
  const auto fb = b->frontier();
  ASSERT_EQ(fa.size(), 4u);
  ASSERT_EQ(fb.size(), 4u);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].t.ns, fb[i].t.ns);
    EXPECT_EQ(fa[i].seq, fb[i].seq);
    EXPECT_EQ(fa[i].tag.kind, fb[i].tag.kind);
    EXPECT_EQ(fa[i].tag.node, fb[i].tag.node);
    if (i > 0) {
      EXPECT_TRUE(fa[i - 1].t < fa[i].t ||
                  (fa[i - 1].t == fa[i].t && fa[i - 1].seq < fa[i].seq));
    }
  }
  EXPECT_EQ(fa[0].tag.kind, EventTag::Kind::kTimer);
  EXPECT_EQ(fa[1].tag.kind, EventTag::Kind::kInternal);
  // Equal-time entries keep scheduling (seq) order.
  EXPECT_EQ(fa[2].tag.node, 1u);
  EXPECT_EQ(fa[3].tag.node, 2u);
  // Cancelling removes the entry from the frontier without running it.
  a->cancel(fa[3].id);
  EXPECT_EQ(a->frontier().size(), 3u);
}

TEST(Scheduler, RunTaskExecutesOutOfOrderAndAdvancesClock) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{10}, EventTag::delivery(0, 1, 0), [&] { order.push_back(1); });
  const TaskId late =
      s.schedule_at(TimePoint{50}, EventTag::delivery(1, 0, 0), [&] { order.push_back(2); });
  // Choosing the later event models the earlier one being delayed, not lost.
  EXPECT_TRUE(s.run_task(late));
  EXPECT_EQ(s.now().ns, 50);
  EXPECT_FALSE(s.run_task(late));  // already run
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Scheduler, RunInternalDrainsOnlyUntaggedEvents) {
  Scheduler s;
  int internal = 0;
  bool delivery = false;
  s.schedule_at(TimePoint{10}, [&] {
    ++internal;
    // Internal work may cascade: newly scheduled bookkeeping drains too.
    s.schedule_at(TimePoint{15}, [&] { ++internal; });
  });
  s.schedule_at(TimePoint{5}, EventTag::delivery(0, 1, 0), [&] { delivery = true; });
  EXPECT_EQ(s.run_internal(), 2u);
  EXPECT_EQ(internal, 2);
  EXPECT_FALSE(delivery);  // tagged events are the explorer's to run
  ASSERT_EQ(s.frontier().size(), 1u);
  EXPECT_EQ(s.frontier()[0].tag.kind, EventTag::Kind::kDelivery);
}

// --- slot reuse and generation ids --------------------------------------------

TEST(Scheduler, StaleIdDoesNotCancelSlotsNextOccupant) {
  // A freed slot is reused by the next event under a new generation, so an
  // id kept past its event's run can never reach the newcomer.
  Scheduler s;
  const TaskId old_id = s.schedule_at(TimePoint{10}, [] {});
  s.run_all();
  bool ran = false;
  const TaskId new_id = s.schedule_at(TimePoint{20}, [&] { ran = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(new_id), static_cast<std::uint32_t>(old_id))
      << "the freed slot should be reused";
  EXPECT_NE(new_id, old_id);
  s.cancel(old_id);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StaleIdOfCancelledEventDoesNotCancelReuse) {
  // Same for an event dropped by cancellation: once the heap discards it,
  // its slot is reused and the old id must stay inert.
  Scheduler s;
  const TaskId doomed = s.schedule_at(TimePoint{10}, [] {});
  s.cancel(doomed);
  s.run_all();
  bool ran = false;
  const TaskId fresh = s.schedule_at(TimePoint{20}, [&] { ran = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(fresh), static_cast<std::uint32_t>(doomed));
  s.cancel(doomed);
  EXPECT_FALSE(s.run_task(doomed));
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, PendingStaysExactUnderRepeatedAndRacingCancels) {
  Scheduler s;
  const TaskId a = s.schedule_at(TimePoint{10}, [] {});
  const TaskId b = s.schedule_at(TimePoint{20}, [] {});
  TaskId c = 0;
  c = s.schedule_at(TimePoint{30}, [&] { s.cancel(c); });  // cancels itself while running
  s.schedule_at(TimePoint{40}, [] {});
  EXPECT_EQ(s.pending(), 4u);
  s.cancel(b);
  s.cancel(b);  // twice: counted once
  EXPECT_EQ(s.pending(), 3u);
  s.run_until(TimePoint{10});
  s.cancel(a);  // already ran
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(TimePoint{30});
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(c);  // ran (and cancelled itself) already
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Scheduler, FrontierAndRunTaskSkipCancelledSlots) {
  Scheduler s;
  bool ran = false;
  const TaskId doomed =
      s.schedule_at(TimePoint{10}, EventTag::timer(0), [&] { ran = true; });
  const TaskId live = s.schedule_at(TimePoint{20}, EventTag::timer(1), [] {});
  s.cancel(doomed);
  const auto f = s.frontier();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].id, live);
  EXPECT_FALSE(s.run_task(doomed));
  EXPECT_FALSE(s.run_task(0));
  EXPECT_FALSE(s.run_task(live + (TaskId{1} << 32)));  // right slot, wrong generation
  EXPECT_TRUE(s.run_task(live));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.frontier().empty());
}

TEST(Scheduler, ChurnRunsLiveEventsOnceInOrder) {
  // Many interleaved schedules and cancels: live events run in (time, seq)
  // order exactly once, and every cancelled one is skipped.
  Scheduler s;
  std::vector<std::pair<std::int64_t, int>> ran;
  std::vector<TaskId> ids;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t = (i * 7919) % 500;
    ids.push_back(s.schedule_at(TimePoint{t}, [&ran, t, i] { ran.emplace_back(t, i); }));
    if (i % 8 == 3) s.cancel(ids[static_cast<std::size_t>(i / 2)]);
  }
  const std::size_t expected = s.pending();
  s.run_all();
  EXPECT_EQ(ran.size(), expected);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

// --- lanes --------------------------------------------------------------------

LaneEvent record(std::int64_t t, EventTag tag = {}, std::uint32_t aux = 0) {
  LaneEvent e;
  e.t = TimePoint{t};
  e.tag = tag;
  e.aux = aux;
  return e;
}

// A seeded world of lane records and cancellable timers whose handlers keep
// scheduling more of both. With `lanes` off, every lane record becomes an
// ordinary tagged slot event instead, which must not change a thing.
struct LaneWorld {
  static constexpr std::size_t kLanes = 5;
  explicit LaneWorld(bool lanes, std::uint64_t seed) : use_lanes(lanes), prng(seed) {
    for (std::size_t i = 0; i < kLanes; ++i)
      ids.push_back(s.open_lane([this](LaneEvent& e) { ran(e.aux); }));
  }
  void add_record(std::size_t lane) {
    const TimePoint t = std::max(s.now(), tail[lane]) + Duration(prng.next_range(0, 40));
    tail[lane] = t;
    const auto label = next_label++;
    const EventTag tag = EventTag::delivery(static_cast<std::uint32_t>(lane), 0, label % 3);
    if (use_lanes) s.append(ids[lane], record(t.ns, tag, label));
    else s.schedule_at(t, tag, [this, label] { ran(label); });
  }
  void add_timer() {
    const auto label = next_label++;
    timers.push_back(s.schedule_after(Duration(prng.next_range(0, 150)), EventTag::timer(0),
                                      [this, label] { ran(label); }));
    if (prng.next_below(4) == 0) s.cancel(timers[prng.next_below(timers.size())]);
  }
  void ran(std::uint32_t label) {
    log.emplace_back(s.now().ns, label);
    pending_seen.push_back(s.pending());
    if (budget == 0) return;
    --budget;
    for (std::uint64_t k = prng.next_below(3); k > 0; --k) add_record(prng.next_below(kLanes));
    if (prng.next_below(3) == 0) add_timer();
  }

  Scheduler s;
  bool use_lanes;
  Prng prng;
  std::vector<LaneId> ids;
  std::vector<TaskId> timers;
  TimePoint tail[kLanes] = {};
  std::uint32_t next_label = 0;
  int budget = 3000;
  std::vector<std::pair<std::int64_t, std::uint32_t>> log;
  std::vector<std::size_t> pending_seen;
};

TEST(SchedulerLanes, MixRunsLikeTheSameEventsWithoutLanes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LaneWorld a(true, seed), b(false, seed);
    for (LaneWorld* w : {&a, &b}) {
      for (std::size_t i = 0; i < 200; ++i) {
        w->add_record(i % LaneWorld::kLanes);
        if (i % 3 == 0) w->add_timer();
      }
    }
    EXPECT_EQ(a.s.pending(), b.s.pending());
    EXPECT_EQ(a.s.frontier().size(), a.s.pending());
    a.s.run_all();
    b.s.run_all();
    ASSERT_EQ(a.log, b.log) << "seed " << seed;
    EXPECT_EQ(a.pending_seen, b.pending_seen);
    EXPECT_TRUE(std::is_sorted(a.log.begin(), a.log.end(),
                               [](const auto& x, const auto& y) { return x.first < y.first; }));
    EXPECT_EQ(a.s.fingerprint(), b.s.fingerprint());
    EXPECT_EQ(a.s.events_executed(), b.s.events_executed());
    EXPECT_EQ(a.s.pending(), 0u);
  }
}

TEST(SchedulerLanes, OutOfOrderAppendTripsTheInvariant) {
  Scheduler s;
  const LaneId lane = s.open_lane([](LaneEvent&) {});
  s.append(lane, record(10));
  s.append(lane, record(10));  // equal times are fine
  EXPECT_DEATH(s.append(lane, record(9)), "lane times must not decrease");
}

TEST(SchedulerLanes, FrontierListsEveryLaneRecordInOrderWithItsTag) {
  Scheduler s;
  const LaneId l0 = s.open_lane([](LaneEvent&) {});
  const LaneId l1 = s.open_lane([](LaneEvent&) {});
  s.append(l0, record(10, EventTag::delivery(0, 1, 4)));
  s.append(l1, record(5, EventTag::delivery(1, 2, 5)));
  s.append(l0, record(30, EventTag{}));
  const TaskId timer = s.schedule_at(TimePoint{20}, EventTag::timer(3), [] {});
  s.append(l1, record(30, EventTag::delivery(1, 0, 6)));
  const auto f = s.frontier();
  ASSERT_EQ(f.size(), 5u);
  EXPECT_EQ(s.pending(), 5u);
  const std::int64_t times[] = {5, 10, 20, 30, 30};
  const std::uint64_t seqs[] = {1, 0, 3, 2, 4};
  const EventTag::Kind kinds[] = {EventTag::Kind::kDelivery, EventTag::Kind::kDelivery,
                                  EventTag::Kind::kTimer, EventTag::Kind::kInternal,
                                  EventTag::Kind::kDelivery};
  const std::uint32_t types[] = {5, 4, 0, 0, 6};
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i].t.ns, times[i]) << i;
    EXPECT_EQ(f[i].seq, seqs[i]) << i;
    EXPECT_EQ(f[i].tag.kind, kinds[i]) << i;
    EXPECT_EQ(f[i].tag.type, types[i]) << i;
  }
  EXPECT_EQ(f[2].id, timer);
  s.cancel(f[1].id);  // lane records cannot be cancelled
  EXPECT_EQ(s.frontier().size(), 5u);
  EXPECT_EQ(s.pending(), 5u);
}

TEST(SchedulerLanes, RunTaskOnAMidLaneRecordLeavesTheRestInOrder) {
  Scheduler s;
  std::vector<std::uint32_t> ran;
  const LaneId lane = s.open_lane([&](LaneEvent& e) { ran.push_back(e.aux); });
  for (std::uint32_t i = 0; i < 5; ++i)
    s.append(lane, record(10 * (i + 1), EventTag::delivery(0, 1, 0), i));
  s.schedule_at(TimePoint{25}, [&] { ran.push_back(100); });
  auto f = s.frontier();
  ASSERT_EQ(f.size(), 6u);
  const TaskId third = f[3].id;  // t = 30, after the t = 25 slot event
  ASSERT_EQ(f[3].t.ns, 30);
  EXPECT_TRUE(s.run_task(third));
  EXPECT_EQ(s.now().ns, 30);
  EXPECT_FALSE(s.run_task(third));  // already run
  EXPECT_EQ(s.pending(), 5u);
  f = s.frontier();
  ASSERT_EQ(f.size(), 5u);
  EXPECT_EQ(f[0].t.ns, 10);
  EXPECT_EQ(f[2].t.ns, 25);
  EXPECT_EQ(f[3].t.ns, 40);
  EXPECT_TRUE(s.run_task(f[0].id));  // the head: its successor takes the key
  EXPECT_EQ(s.pending(), 4u);
  // The clock stays at 30; the delayed records still run, in lane order.
  s.append(lane, record(60, EventTag::delivery(0, 1, 0), 5));
  EXPECT_EQ(s.pending(), 5u);
  s.run_all();
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{2, 0, 1, 100, 3, 4, 5}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), 7u);
  EXPECT_TRUE(s.frontier().empty());
}

TEST(SchedulerLanes, RunInternalDrainsUntaggedLaneRecords) {
  Scheduler s;
  int internal = 0;
  const LaneId lane = s.open_lane([&](LaneEvent& e) {
    if (e.tag.kind == EventTag::Kind::kInternal) ++internal;
  });
  s.append(lane, record(5, EventTag::delivery(0, 1, 0)));
  s.append(lane, record(7, EventTag{}));
  s.append(lane, record(9, EventTag{}));
  EXPECT_EQ(s.run_internal(), 2u);
  EXPECT_EQ(internal, 2);
  ASSERT_EQ(s.frontier().size(), 1u);
  EXPECT_EQ(s.frontier()[0].tag.kind, EventTag::Kind::kDelivery);
  EXPECT_EQ(s.pending(), 1u);
}

}  // namespace
}  // namespace moonshot::sim
