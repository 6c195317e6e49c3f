// Reference discrete-event kernel for tests: the map-based Simulator
// that the slot slab in src/sim replaced. Each action is a std::function
// in a map keyed by a sequential id, periodic timers live in a second
// map and cancellations in a set. Slow, but simple enough to trust;
// tests drive it side by side with lagover::Simulator and require the
// same firing order, clock, counts and cancel results.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace lagover::reference {

class MapSimulator {
 public:
  using Action = std::function<void()>;

  SimTime now() const noexcept { return now_; }
  std::uint64_t executed_events() const noexcept { return executed_; }

  EventId schedule_at(SimTime when, Action action) {
    LAGOVER_EXPECTS(when >= now_);
    LAGOVER_EXPECTS(action != nullptr);
    const EventId id = next_id_++;
    actions_.emplace(id, std::move(action));
    queue_.push(Entry{when, next_seq_++, id});
    return id;
  }

  EventId schedule_after(SimTime delay, Action action) {
    LAGOVER_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(action));
  }

  EventId schedule_periodic(SimTime period, Action action) {
    LAGOVER_EXPECTS(period > 0.0);
    LAGOVER_EXPECTS(action != nullptr);
    const EventId id = next_id_++;
    periodics_.emplace(id, Periodic{period, std::move(action)});
    queue_.push(Entry{now_ + period, next_seq_++, id});
    return id;
  }

  bool cancel(EventId id) {
    if (cancelled_.count(id) != 0) return false;  // already cancelled
    const bool was_periodic = periodics_.erase(id) != 0;
    if (actions_.erase(id) == 0 && !was_periodic) return false;
    cancelled_.insert(id);
    return true;
  }

  bool step(SimTime horizon) {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      if (cancelled_.count(top.id) != 0) {
        queue_.pop();
        cancelled_.erase(top.id);
        continue;
      }
      if (top.when > horizon) return false;
      queue_.pop();
      now_ = top.when;

      const auto periodic_it = periodics_.find(top.id);
      if (periodic_it != periodics_.end()) {
        // Re-arm before firing, and fire a copy so the action may safely
        // cancel its own timer (which erases the map entry mid-call).
        queue_.push(
            Entry{now_ + periodic_it->second.period, next_seq_++, top.id});
        Action action = periodic_it->second.action;
        ++executed_;
        action();
        return true;
      }

      auto it = actions_.find(top.id);
      LAGOVER_ASSERT(it != actions_.end());
      Action action = std::move(it->second);
      actions_.erase(it);
      ++executed_;
      action();
      return true;
    }
    return false;
  }

  std::uint64_t run_until(SimTime horizon) {
    std::uint64_t fired = 0;
    while (step(horizon)) ++fired;
    if (now_ < horizon) now_ = horizon;
    return fired;
  }

  std::uint64_t run() {
    std::uint64_t fired = 0;
    while (step(std::numeric_limits<SimTime>::infinity())) ++fired;
    return fired;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Periodic {
    SimTime period;
    Action action;
  };

  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::map<EventId, Action> actions_;
  std::map<EventId, Periodic> periodics_;
  std::set<EventId> cancelled_;
};

}  // namespace lagover::reference
