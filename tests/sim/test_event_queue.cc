#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(EventQueue, SizeAndHighWaterAreExactAcrossARebase) {
  // size() is one counter and live_high_water its running maximum; both
  // must match a hand count after every schedule and pop, including the
  // pops that drain the ring and rebase the horizon onto the overflow.
  EventQueue q;
  std::size_t live = 0, high_water = 0;
  auto check = [&] {
    ASSERT_EQ(q.size(), live);
    ASSERT_EQ(q.empty(), live == 0);
    ASSERT_EQ(q.stats().live_high_water, high_water);
  };
  auto schedule = [&](std::int64_t ms) {
    q.schedule(at(ms), [] {});
    high_water = std::max(high_water, ++live);
    check();
  };
  for (std::int64_t ms : {1, 5, 5, 40, 300, 900, 90'000}) schedule(ms);
  q.pop();  // 1ms
  --live;
  check();
  schedule(2);
  schedule(600);
  while (!q.empty()) {
    q.pop();
    --live;
    check();
  }
  EXPECT_GE(q.stats().rebases, 2u);  // 300ms and 90s both lie past a horizon
  EXPECT_EQ(q.stats().live_high_water, 8u);
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
