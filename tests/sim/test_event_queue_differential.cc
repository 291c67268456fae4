// Differential test: the calendar EventQueue against a straightforward
// reference heap, over randomized schedule/pop traces. The reference
// implements the queue's contract directly — (when, seq) FIFO order — so
// any divergence is a calendar bug (bucket rotation, overflow
// redistribution, ...).
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <vector>

#include "sim/random.h"

namespace evo::sim {
namespace {

/// Reference model: binary heap of (when, seq, id).
class ReferenceQueue {
 public:
  void schedule(TimePoint when, int id) { heap_.push(Entry{when, next_seq_++, id}); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  TimePoint next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_.top().when;
  }
  struct Popped {
    TimePoint when;
    int id;
  };
  Popped pop() {
    const Entry top = heap_.top();
    heap_.pop();
    return Popped{top.when, top.id};
  }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq = 0;
    int id = 0;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Draw an event time: clustered near `now` (same-bucket and near-future),
/// with tails into far buckets and the overflow horizon, plus exact
/// duplicates to exercise FIFO ties.
TimePoint draw_when(Rng& rng, TimePoint now, std::optional<TimePoint> previous) {
  const double roll = rng.uniform();
  if (roll < 0.15 && previous) return *previous;  // equal-time FIFO tie
  if (roll < 0.55) return now + Duration::micros(rng.uniform_int(0, 2'000));
  if (roll < 0.85) return now + Duration::micros(rng.uniform_int(0, 200'000));
  // Beyond the 256-bucket x 1024us horizon: the overflow path.
  return now + Duration::micros(rng.uniform_int(260'000, 30'000'000));
}

TEST(EventQueueDifferential, RandomTracesMatchReferenceHeap) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99999ull}) {
    Rng rng{seed};
    EventQueue queue;
    ReferenceQueue reference;
    std::vector<int> fired;  // ids in calendar pop order
    TimePoint now = TimePoint::origin();
    std::optional<TimePoint> previous;
    int next_id = 0;

    for (int op = 0; op < 4000; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.45) {
        const TimePoint when = draw_when(rng, now, previous);
        previous = when;
        const int id = next_id++;
        queue.schedule(when, [id, &fired] { fired.push_back(id); });
        reference.schedule(when, id);
      } else if (!queue.empty()) {
        ASSERT_FALSE(reference.empty());
        ASSERT_EQ(queue.next_time(), reference.next_time());
        auto popped = queue.pop();
        const auto expected = reference.pop();
        ASSERT_EQ(popped.when, expected.when);
        const auto before = fired.size();
        popped.fn();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected.id) << "seed " << seed << " op " << op;
        // The tie path may schedule into the past (both queues accept it),
        // so pop times are not monotone here; advance `now` monotonically.
        now = std::max(now, popped.when);
      }
      ASSERT_EQ(queue.size(), reference.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.empty(), reference.empty());
    }

    // Drain: the full remaining order must match.
    while (!reference.empty()) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.next_time(), reference.next_time());
      auto popped = queue.pop();
      const auto expected = reference.pop();
      ASSERT_EQ(popped.when, expected.when);
      popped.fn();
      ASSERT_EQ(fired.back(), expected.id);
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(EventQueueDifferential, HealthCountersStaySane) {
  // The sim.queue.* counters must agree with a hand-tracked model of the
  // same trace: high-water equals the max simultaneous live count, every
  // far-horizon schedule lands in overflow, and draining past the 256 x
  // 1024us ring horizon forces at least one rebase that pulls overflow
  // events back (never more than were put in).
  Rng rng{7};
  EventQueue queue;
  std::size_t live = 0, high_water = 0;
  std::uint64_t past_horizon = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto us = rng.uniform_int(0, 3'000'000);
    if (us >= 256 * 1024) ++past_horizon;
    queue.schedule(TimePoint{us}, [] {});
    high_water = std::max(high_water, ++live);
  }
  const auto& stats = queue.stats();
  EXPECT_EQ(stats.live_high_water, high_water);
  EXPECT_EQ(stats.overflow_scheduled, past_horizon);
  ASSERT_GT(past_horizon, 0u);  // the draw range guarantees overflow traffic
  while (!queue.empty()) queue.pop();
  EXPECT_GE(stats.rebases, 1u);
  EXPECT_LE(stats.overflow_redistributed, stats.overflow_scheduled);
  EXPECT_GT(stats.overflow_redistributed, 0u);
}

TEST(EventQueueDifferential, HealthCountersSurviveRandomTraces) {
  // Same randomized trace shape as the reference-heap test: whatever the
  // mix of schedules and pops, the counters stay internally consistent
  // (they count schedules, not surviving events).
  Rng rng{4242};
  EventQueue queue;
  std::size_t scheduled = 0;
  TimePoint now = TimePoint::origin();
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      queue.schedule(draw_when(rng, now, {}), [] {});
      ++scheduled;
    } else if (!queue.empty()) {
      now = std::max(now, queue.pop().when);
    }
  }
  const auto& stats = queue.stats();
  EXPECT_LE(stats.live_high_water, scheduled);
  EXPECT_GE(stats.live_high_water, 1u);
  EXPECT_LE(stats.overflow_scheduled, scheduled);
  EXPECT_LE(stats.overflow_redistributed, stats.overflow_scheduled);
}

TEST(EventQueueDifferential, PopNeverGoesBackwardsAcrossEpochs) {
  // Long-horizon stress: periodic timers at many scales force repeated
  // ring wraps and overflow redistributions.
  Rng rng{2024};
  EventQueue queue;
  for (int i = 0; i < 2000; ++i) {
    queue.schedule(TimePoint{rng.uniform_int(0, 120'000'000)}, [] {});
  }
  TimePoint last = TimePoint::origin();
  std::size_t popped = 0;
  while (!queue.empty()) {
    const auto p = queue.pop();
    ASSERT_GE(p.when, last);
    last = p.when;
    ++popped;
  }
  EXPECT_EQ(popped, 2000u);
}

}  // namespace
}  // namespace evo::sim
