#include "sim/simulator.hpp"

#include <limits>

namespace lagover {

EventId Simulator::schedule_at(SimTime when, Action action) {
  LAGOVER_EXPECTS(when >= now_);
  return insert(when, 0.0, std::move(action));
}

EventId Simulator::schedule_after(SimTime delay, Action action) {
  LAGOVER_EXPECTS(delay >= 0.0);
  return insert(now_ + delay, 0.0, std::move(action));
}

EventId Simulator::schedule_periodic(SimTime period, Action action) {
  LAGOVER_EXPECTS(period > 0.0);
  return insert(now_ + period, period, std::move(action));
}

EventId Simulator::insert(SimTime when, SimTime period, Action action) {
  LAGOVER_EXPECTS(action);
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot].action = std::move(action);
  slots_[slot].period = period;
  const std::uint32_t generation = ++slots_[slot].generation;
  queue_.push(Entry{when, next_seq_++, slot, generation});
  return EventId{generation} << 32 | slot;
}

void Simulator::release(std::uint32_t slot) {
  ++slots_[slot].generation;
  free_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  // An even generation is never issued: it names a free slot.
  if (generation % 2 == 0 || !current(slot, generation)) return false;
  // Destroyed on return, once the slab is consistent again.
  const Action cancelled = std::move(slots_[slot].action);
  release(slot);
  return true;
}

bool Simulator::step(SimTime horizon) {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    const bool live = current(top.slot, top.generation);
    if (live && top.when > horizon) return false;
    queue_.pop();
    if (!live) continue;  // cancelled
    now_ = top.when;
    ++executed_;
    Action action = std::move(slots_[top.slot].action);
    if (slots_[top.slot].period > 0.0) {
      // Re-arm before firing. The action may cancel its own timer, and
      // the slab may grow while it runs, so it goes back into its slot
      // (looked up afresh) only if the timer is still live.
      queue_.push(Entry{now_ + slots_[top.slot].period, next_seq_++, top.slot,
                        top.generation});
      action();
      if (current(top.slot, top.generation))
        slots_[top.slot].action = std::move(action);
      return true;
    }
    release(top.slot);
    action();
    return true;
  }
  return false;
}

std::uint64_t Simulator::run_until(SimTime horizon) {
  std::uint64_t fired = 0;
  while (step(horizon)) ++fired;
  // Advance the clock to the horizon so callers' time arithmetic stays
  // simple even when the last event fell short of it.
  if (now_ < horizon) now_ = horizon;
  return fired;
}

std::uint64_t Simulator::run() {
  std::uint64_t fired = 0;
  while (step(std::numeric_limits<SimTime>::infinity())) ++fired;
  return fired;
}

}  // namespace lagover
