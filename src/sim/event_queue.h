// Calendar queue of timed, fire-and-forget events.
//
// Events live in bucketed vectors (a calendar/ladder queue) instead of a
// binary heap: the ring covers a sliding horizon of kBuckets fixed-width
// time buckets, events beyond the horizon wait in an overflow vector that
// is redistributed when the cursor reaches them. Equal-time events fire in
// schedule order (FIFO), which keeps protocol simulations deterministic.
//
// A scheduled event always fires: there is no handle and no cancellation,
// so every queued entry is live and size() is one counter. No per-event
// heap allocation anywhere — the buckets are reused flat vectors, and
// EventFn stores typical closures inline (see inplace_fn.h).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/recorder.h"
#include "sim/inplace_fn.h"
#include "sim/time.h"

namespace evo::sim {

/// Type-erased event callback. The inline capacity is sized for the largest
/// hot-path capture (DeliveryEngine's forwarding continuation, static_assert
/// in delivery.cc); everything the control plane schedules fits comfortably.
using EventFn = InplaceFn<128>;

class EventQueue {
 public:
  /// Health counters, cumulative over the queue's lifetime. Read through
  /// Simulator::queue_stats().
  struct Stats {
    std::size_t live_high_water = 0;        // max simultaneous live events
    std::uint64_t overflow_scheduled = 0;   // events that landed past the horizon
    std::uint64_t overflow_redistributed = 0;  // overflow events pulled into the ring
    std::uint64_t rebases = 0;              // horizon rebase operations
    /// Entries the ring buckets can hold without reallocating, summed over
    /// all buckets: memory the queue keeps between bursts. A snapshot taken
    /// by stats(), not cumulative.
    std::size_t ring_capacity = 0;
  };

  EventQueue() : ring_(kBuckets) {}

  void schedule(TimePoint when, EventFn fn) {
    if (++size_ > stats_.live_high_water) stats_.live_high_water = size_;
    insert(Entry{when, next_seq_++, std::move(fn)});
  }

  bool empty() const { return size_ == 0; }

  /// Number of scheduled events that have not fired yet.
  std::size_t size() const { return size_; }

  const Stats& stats() const {
    stats_.ring_capacity = 0;
    for (const auto& bucket : ring_) stats_.ring_capacity += bucket.capacity();
    return stats_;
  }

  /// Telemetry sink for rare structural events (horizon rebases). Null by
  /// default; never consulted on the schedule/pop fast path.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Time of the earliest event; TimePoint::max() if none. Not const: it
  /// may load the next bucket (or rebase the horizon) to find it.
  TimePoint next_time() {
    return ensure_front() ? active_[active_idx_].when : TimePoint::max();
  }

  /// Remove and return the earliest event. Requires !empty().
  struct Popped {
    TimePoint when;
    EventFn fn;
  };
  Popped pop() {
    const bool have = ensure_front();
    assert(have && "pop() on an empty EventQueue");
    (void)have;
    Entry& entry = active_[active_idx_++];
    --size_;
    return Popped{entry.when, std::move(entry.fn)};
  }

 private:
  // 1024us buckets x 256 buckets = a ~262ms sliding horizon. Typical event
  // delays here are link latencies and protocol timers (100us..100ms), so
  // nearly every event lands in the ring; multi-second timers take the
  // overflow path and are redistributed when the cursor reaches them.
  static constexpr int kBucketShift = 10;  // 1024us per bucket
  static constexpr std::int64_t kBuckets = 256;
  static constexpr std::int64_t kNoOverflow =
      std::numeric_limits<std::int64_t>::max();
  // A drained active vector parks in the ring slot it was swapped with; one
  // larger than this is freed there, so the slots do not each grow to the
  // largest burst they ever held. Smaller ones are kept for reuse.
  static constexpr std::size_t kParkedCapacity = 256;

  struct Entry {
    TimePoint when;
    std::uint64_t seq = 0;
    EventFn fn;
  };

  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static std::int64_t abs_bucket(TimePoint t) {
    return t.count_micros() >> kBucketShift;  // arithmetic shift (C++20)
  }

  void insert(Entry entry) {
    const std::int64_t ab = abs_bucket(entry.when);
    if (ab <= base_abs_) {
      // Lands in the bucket the cursor is consuming (or, if scheduled
      // "into the past", before it): splice into the unconsumed tail so
      // (when, seq) order — the heap's order — is preserved.
      const auto pos =
          std::upper_bound(active_.begin() + static_cast<std::ptrdiff_t>(active_idx_),
                           active_.end(), entry, entry_less);
      active_.insert(pos, std::move(entry));
    } else if (ab < base_abs_ + kBuckets) {
      ring_[static_cast<std::size_t>(ab % kBuckets)].push_back(std::move(entry));
    } else {
      overflow_min_ab_ = std::min(overflow_min_ab_, ab);
      overflow_.push_back(std::move(entry));
      ++stats_.overflow_scheduled;
    }
  }

  /// Position the cursor on the earliest entry; false if none exist.
  /// Loads and sorts the next bucket (or redistributes the overflow into a
  /// new horizon) once the cursor bucket is consumed.
  bool ensure_front() {
    for (;;) {
      if (active_idx_ < active_.size()) return true;
      active_.clear();
      active_idx_ = 0;
      if (size_ == 0) return false;

      // Advance to the next non-empty ring bucket. The scan is capped at
      // the earliest overflow bucket: an overflow event may sit *inside*
      // the advanced horizon (it was beyond the horizon when scheduled),
      // and ring buckets past it must not fire before it is pulled in.
      const std::int64_t limit = std::min(base_abs_ + kBuckets, overflow_min_ab_);
      for (std::int64_t ab = base_abs_; ab < limit; ++ab) {
        auto& bucket = ring_[static_cast<std::size_t>(ab % kBuckets)];
        if (bucket.empty()) continue;
        base_abs_ = ab;
        active_.swap(bucket);
        if (bucket.capacity() > kParkedCapacity) std::vector<Entry>().swap(bucket);
        std::sort(active_.begin(), active_.end(), entry_less);
        return true;
      }

      // Nothing fires before the overflow: rebase the horizon at its
      // earliest bucket and pull every overflow event inside the new
      // horizon into the ring. Remaining ring entries all have buckets in
      // [old limit, old base + kBuckets) ⊂ [new base, new base + kBuckets),
      // so their ring positions stay valid.
      assert(overflow_min_ab_ != kNoOverflow && "size counter says events remain");
      base_abs_ = overflow_min_ab_;
      std::int64_t new_min = kNoOverflow;
      std::size_t keep = 0;
      for (std::size_t i = 0; i < overflow_.size(); ++i) {
        const std::int64_t ab = abs_bucket(overflow_[i].when);
        if (ab < base_abs_ + kBuckets) {
          ring_[static_cast<std::size_t>(ab % kBuckets)].push_back(
              std::move(overflow_[i]));
        } else {
          new_min = std::min(new_min, ab);
          if (keep != i) overflow_[keep] = std::move(overflow_[i]);
          ++keep;
        }
      }
      stats_.overflow_redistributed += overflow_.size() - keep;
      ++stats_.rebases;
      if (recorder_ != nullptr) {
        recorder_->instant(obs::Domain::kSim, "sim.queue.rebase",
                           static_cast<std::uint64_t>(base_abs_),
                           static_cast<std::uint64_t>(overflow_.size() - keep));
      }
      overflow_.resize(keep);
      overflow_min_ab_ = new_min;
    }
  }

  std::vector<std::vector<Entry>> ring_;
  std::vector<Entry> active_;  // cursor bucket, sorted by (when, seq)
  std::size_t active_idx_ = 0;
  std::int64_t base_abs_ = 0;  // absolute bucket index of active_
  std::vector<Entry> overflow_;
  std::int64_t overflow_min_ab_ = kNoOverflow;
  std::size_t size_ = 0;
  mutable Stats stats_;  // stats() refreshes the ring_capacity snapshot
  obs::Recorder* recorder_ = nullptr;
  std::uint64_t next_seq_ = 0;
};

}  // namespace evo::sim
