#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace evo::sim {
namespace {

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(30), [&] { order.push_back(3); });
  q.schedule(at(10), [&] { order.push_back(1); });
  q.schedule(at(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(at(10), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule(at(10), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleEventSkipped) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(10), [&] { order.push_back(1); });
  auto mid = q.schedule(at(20), [&] { order.push_back(2); });
  q.schedule(at(30), [&] { order.push_back(3); });
  mid.cancel();
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto handle = q.schedule(at(10), [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FiredEventNoLongerPending) {
  EventQueue q;
  auto handle = q.schedule(at(10), [] {});
  q.pop().fn();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto early = q.schedule(at(5), [] {});
  q.schedule(at(50), [] {});
  early.cancel();
  EXPECT_EQ(q.next_time(), at(50));
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.schedule(at(1), [] {});
  q.schedule(at(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearCancelsOutstandingHandles) {
  // Regression: clear() used to discard the heap without marking entries
  // cancelled, so handles kept reporting pending() == true forever.
  EventQueue q;
  auto first = q.schedule(at(1), [] {});
  auto second = q.schedule(at(2), [] {});
  ASSERT_TRUE(first.pending());
  ASSERT_TRUE(second.pending());
  q.clear();
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(second.pending());
  first.cancel();  // still idempotent after clear()
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(EventQueue, DefaultHandleNotPending) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(EventQueue, SizeIsExactUnderCancellation) {
  // size() must report the live count immediately — cancellation may not be
  // deferred to pop-time skimming (idle heuristics read this).
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(at(i), [] {}));
  }
  EXPECT_EQ(q.size(), 10u);
  handles[3].cancel();
  handles[7].cancel();
  EXPECT_EQ(q.size(), 8u);
  handles[3].cancel();  // idempotent: no double-decrement
  EXPECT_EQ(q.size(), 8u);
  q.pop();
  EXPECT_EQ(q.size(), 7u);
  q.clear();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SlotReuseDoesNotResurrectOldHandle) {
  // After an event fires, its slot may be recycled for a new event. The
  // generation counter must keep the old handle dead: cancelling it must
  // not touch the new occupant.
  EventQueue q;
  auto old_handle = q.schedule(at(1), [] {});
  q.pop().fn();
  bool ran = false;
  auto fresh = q.schedule(at(2), [&] { ran = true; });
  EXPECT_FALSE(old_handle.pending());
  old_handle.cancel();  // stale generation: must be a no-op
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, HandleOutlivesQueue) {
  EventHandle handle;
  {
    EventQueue q;
    handle = q.schedule(at(1), [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash after the queue is gone
}

TEST(EventQueue, FarFutureEventsPopInOrderAcrossHorizon) {
  // Events beyond the calendar's bucket horizon take the overflow path and
  // are redistributed as the queue advances; order must be unaffected.
  EventQueue q;
  std::vector<std::int64_t> order;
  q.schedule(at(90'000), [&] { order.push_back(90'000); });  // far overflow
  q.schedule(at(5), [&] { order.push_back(5); });
  q.schedule(at(400), [&] { order.push_back(400); });  // beyond 256ms horizon
  q.schedule(at(80'000), [&] { order.push_back(80'000); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<std::int64_t>{5, 400, 80'000, 90'000}));
}

TEST(EventQueue, OverflowEventInsideAdvancedHorizonNotBypassed) {
  // Regression: an event can land in overflow (beyond the horizon at
  // schedule time) yet fall inside the horizon once the cursor advances.
  // The ring scan must stop at the overflow minimum, or a later ring event
  // would fire first.
  EventQueue q;
  std::vector<int> order;
  // Horizon starts at [0ms, 262ms). 300ms goes to overflow.
  q.schedule(at(300), [&] { order.push_back(300); });
  // Advance the cursor well past 300ms's bucket by draining a nearer event.
  q.schedule(at(250), [&] { order.push_back(250); });
  q.pop().fn();  // now at 250ms; horizon covers [250ms, 512ms)
  // This lands directly in the ring, in a bucket after 300ms's.
  q.schedule(at(310), [&] { order.push_back(310); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{250, 300, 310}));
}

TEST(EventQueue, ClearThenReuse) {
  EventQueue q;
  q.schedule(at(1'000), [] {});
  q.schedule(at(500'000), [] {});  // populate overflow too
  q.clear();
  std::vector<int> order;
  q.schedule(at(2), [&] { order.push_back(2); });
  q.schedule(at(1), [&] { order.push_back(1); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  for (int i = 999; i >= 0; --i) {
    q.schedule(at(i), [] {});
  }
  while (!q.empty()) popped.push_back(q.pop().when.count_micros());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
  EXPECT_EQ(popped.size(), 1000u);
}

TEST(EventQueue, DrainedBurstBuffersAreNotHoarded) {
  // One burst per ring bucket, drained before the next, twice round the
  // ring. Each drained active vector parks in a ring slot; kept whole, every
  // slot would end up holding the capacity of a 600-entry burst.
  EventQueue q;
  constexpr int kRingBuckets = 256;
  constexpr int kBurst = 600;
  std::int64_t micros = 0;
  for (int bucket = 0; bucket < 2 * kRingBuckets; ++bucket) {
    micros += 1024;  // the next bucket
    for (int i = 0; i < kBurst; ++i) {
      q.schedule(TimePoint::origin() + Duration::micros(micros), [] {});
    }
    while (!q.empty()) q.pop();
  }
  // Only buffers within the 256-entry cap stay parked.
  EXPECT_LE(q.stats().ring_capacity, std::size_t{kRingBuckets} * 256);
}

}  // namespace
}  // namespace evo::sim
