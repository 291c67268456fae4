#include "sim/simulator.h"

#include <cassert>

namespace evo::sim {

void Simulator::schedule_at(TimePoint when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.schedule(when, std::move(fn));
}

bool Simulator::fire_idle_callbacks() {
  if (idle_callbacks_.empty()) return false;
  // A callback may register further idle callbacks; those wait for the
  // *next* quiescence, so swap the batch out first.
  std::vector<EventFn> batch;
  batch.swap(idle_callbacks_);
  for (auto& fn : batch) fn();
  return true;
}

std::uint64_t Simulator::drain(TimePoint deadline, std::uint64_t budget) {
  std::uint64_t fired = 0;
  for (;;) {
    if (queue_.empty()) {
      // True quiescence (not the deadline or the budget) triggers idle
      // callbacks, which may schedule more work.
      if (!fire_idle_callbacks()) break;
      continue;
    }
    if (fired == budget || queue_.next_time() > deadline) break;
    auto [when, fn] = queue_.pop();
    now_ = when;
    fn();
    ++fired;
    ++processed_;
  }
  return fired;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  const std::uint64_t fired = drain(deadline, kNoBudget);
  // Advance the clock to the requested time even when future events
  // remain: "run until T" leaves the clock at T, so repeated short slices
  // always make progress.
  if (now_ < deadline && deadline != TimePoint::max()) now_ = deadline;
  return fired;
}

}  // namespace evo::sim
