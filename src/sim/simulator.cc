#include "sim/simulator.h"

#include <cassert>

namespace evo::sim {

EventHandle Simulator::schedule_at(TimePoint when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  return queue_.schedule(when, std::move(fn));
}

std::uint64_t Simulator::run() { return run_until(TimePoint::max()); }

bool Simulator::fire_idle_callbacks() {
  if (idle_callbacks_.empty()) return false;
  // A callback may register further idle callbacks; those wait for the
  // *next* quiescence, so swap the batch out first.
  std::vector<EventFn> batch;
  batch.swap(idle_callbacks_);
  for (auto& fn : batch) fn();
  return true;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t fired = 0;
  for (;;) {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      auto [when, fn] = queue_.pop();
      now_ = when;
      fn();
      ++fired;
      ++processed_;
    }
    // True quiescence (not just the deadline) triggers idle callbacks,
    // which may schedule more work — keep going until both are exhausted.
    if (queue_.empty() && fire_idle_callbacks()) continue;
    break;
  }
  if (deadline != TimePoint::max() && now_ < deadline) {
    // Advance the clock to the requested time even when future events
    // remain: "run until T" leaves the clock at T, so repeated short
    // slices always make progress.
    now_ = deadline;
  }
  return fired;
}

std::uint64_t Simulator::run_events(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  for (;;) {
    if (queue_.empty()) {
      if (!fire_idle_callbacks()) break;
      continue;
    }
    if (fired == max_events) break;
    auto [when, fn] = queue_.pop();
    now_ = when;
    fn();
    ++fired;
    ++processed_;
  }
  return fired;
}

void Simulator::reset() {
  now_ = TimePoint::origin();
  // EventQueue::clear also invalidates outstanding handles.
  queue_.clear();
  idle_callbacks_.clear();
  processed_ = 0;
}

}  // namespace evo::sim
