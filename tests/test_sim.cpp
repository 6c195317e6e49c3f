// Tests for the discrete-event kernel: ordering, cancellation, periodic
// timers, horizons, and a differential check against the map-based
// reference kernel in map_simulator.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "map_simulator.hpp"
#include "sim/simulator.hpp"

namespace lagover {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilRespectsHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto count = sim.run_until(5.0);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PeriodicTimerFiresRepeatedly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_periodic(1.0, [&] { ++fired; });
  sim.run_until(5.5);
  EXPECT_EQ(fired, 5);
}

TEST(SimulatorTest, PeriodicTimerCanCancelItself) {
  Simulator sim;
  int fired = 0;
  EventId id = 0;
  id = sim.schedule_periodic(1.0, [&] {
    if (++fired == 3) sim.cancel(id);
  });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step(10.0));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(10.0));
  EXPECT_FALSE(sim.step(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, StaleIdCannotCancelTheSlotsNextOccupant) {
  Simulator sim;
  int fired = 0;
  const EventId first = sim.schedule_at(1.0, [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(first));
  // The freed slot is reused at once; the old id must not reach it.
  const EventId second = sim.schedule_at(1.0, [&] { fired += 10; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.cancel(second));
}

TEST(SimulatorDeathTest, ScheduleAfterRejectsEmptyFunction) {
  Simulator sim;
  const std::function<void()> empty;
  EXPECT_DEATH(sim.schedule_after(1.0, empty), "precondition");
}

TEST(SimulatorDeathTest, SchedulePeriodicRejectsEmptyFunction) {
  Simulator sim;
  const std::function<void()> empty;
  EXPECT_DEATH(sim.schedule_periodic(1.0, empty), "precondition");
}

// --- differential check against the map-based reference --------------

/// One kernel under the differential test and what the test records of
/// it. Both sides receive the same operations. What an action does when
/// it fires comes from the side's own Rng, seeded alike, so the two
/// sides stay in step exactly as long as the kernels agree.
template <typename Kernel>
struct Side {
  explicit Side(std::uint64_t seed) : rng(seed) {}

  Kernel sim;
  Rng rng;
  std::vector<EventId> ids;       ///< by label: the order of issue
  std::vector<char> live;         ///< by label: scheduled, not yet gone
  std::vector<int> firings_left;  ///< by label: periodic countdown, or -1
  std::vector<std::string> log;   ///< firings and cancel results
  /// (periodic, successor): a periodic that cancelled itself and the
  /// label it scheduled right after.
  std::vector<std::pair<std::size_t, std::size_t>> handoffs;

  /// Gives the next label to the event `issue` schedules.
  template <typename Issue>
  std::size_t add(int countdown, Issue issue) {
    const std::size_t label = ids.size();
    ids.push_back(0);
    live.push_back(1);
    firings_left.push_back(countdown);
    ids[label] = issue([this, label] { fire(label); });
    return label;
  }
  std::size_t at(SimTime when) {
    return add(-1, [&](auto action) { return sim.schedule_at(when, action); });
  }
  std::size_t after(SimTime delay) {
    return add(-1,
               [&](auto action) { return sim.schedule_after(delay, action); });
  }
  std::size_t every(SimTime period, int countdown) {
    return add(countdown, [&](auto action) {
      return sim.schedule_periodic(period, action);
    });
  }

  bool cancel(EventId id, const std::string& what) {
    const bool cancelled = sim.cancel(id);
    log.push_back("cancel " + what + " -> " + std::to_string(cancelled));
    return cancelled;
  }
  bool cancel_label(std::size_t label) {
    const bool cancelled = cancel(ids[label], std::to_string(label));
    if (cancelled) live[label] = 0;
    return cancelled;
  }

  void fire(std::size_t label) {
    log.push_back("fire " + std::to_string(label) + " at " +
                  std::to_string(sim.now()) + " #" +
                  std::to_string(sim.executed_events()));
    if (firings_left[label] < 0) {
      live[label] = 0;  // a one-shot is gone once it fires
    } else if (--firings_left[label] == 0) {
      // A periodic that cancels itself, then schedules an event that
      // takes over its freed slot.
      cancel_label(label);
      handoffs.emplace_back(label, after(0.25));
    }
    // Calls made from inside an action: fewer than one new event per
    // firing on average, so the run stays finite.
    const std::int64_t what = rng.uniform_int(0, 19);
    const SimTime offset = 0.25 * static_cast<double>(rng.uniform_int(0, 8));
    if (what < 4) {
      at(sim.now() + offset);
    } else if (what < 6) {
      after(offset);
    } else if (what < 9) {
      cancel_label(static_cast<std::size_t>(rng.next_below(ids.size())));
    }
  }
};

/// An id this kernel never issued, in one of four forms.
EventId never_issued(const Side<Simulator>& side, std::uint64_t form,
                     std::size_t label) {
  const EventId seen = side.ids[label];
  switch (form) {
    case 0:
      return 0;
    case 1:  // a slot far past the slab
      return EventId{1} << 32 | 0xFFFFFFF0u;
    case 2:  // an even generation names a free slot
      return seen + (EventId{1} << 32);
    default:  // a generation the slot has not reached
      return seen + (EventId{1} << 62);
  }
}

EventId never_issued(const Side<reference::MapSimulator>& /*side*/,
                     std::uint64_t form, std::size_t /*label*/) {
  return form == 0 ? 0 : (EventId{1} << 40) + form;
}

std::uint32_t slot_bits(EventId id) { return static_cast<std::uint32_t>(id); }

/// Labels whose ids are dead on the slab kernel while their slot holds a
/// live event: cancelling one exercises the generation check.
std::vector<std::size_t> stale_labels(const Side<Simulator>& side) {
  std::set<std::uint32_t> occupied;
  for (std::size_t label = 0; label < side.ids.size(); ++label)
    if (side.live[label] != 0) occupied.insert(slot_bits(side.ids[label]));
  std::vector<std::size_t> stale;
  for (std::size_t label = 0; label < side.ids.size(); ++label)
    if (side.live[label] == 0 && occupied.count(slot_bits(side.ids[label])))
      stale.push_back(label);
  return stale;
}

TEST(SimulatorReferenceTest, SlabMatchesMapKernelUnderRandomOperations) {
  std::uint64_t stale_cancels = 0;
  std::uint64_t slot_handoffs = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Side<Simulator> fast(seed);
    Side<reference::MapSimulator> ref(seed);
    Rng driver(seed * 7919);
    std::size_t checked = 0;
    for (int op = 0; op < 300; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const std::int64_t kind = driver.uniform_int(0, 6);
      const SimTime offset =
          0.25 * static_cast<double>(driver.uniform_int(0, 12));
      const std::uint64_t pick = driver();
      switch (kind) {
        case 0:
          fast.at(fast.sim.now() + offset);
          ref.at(ref.sim.now() + offset);
          break;
        case 1:
          fast.after(offset);
          ref.after(offset);
          break;
        case 2: {  // a periodic that cancels itself after 1-5 firings
          const int countdown = static_cast<int>(pick % 5) + 1;
          fast.every(offset + 0.25, countdown);
          ref.every(offset + 0.25, countdown);
          break;
        }
        case 3: {  // cancel an issued, a stale or a never-issued id
          if (fast.ids.empty()) break;
          std::size_t label =
              static_cast<std::size_t>((pick >> 8) % fast.ids.size());
          if (pick % 3 == 1) {
            const std::vector<std::size_t> stale = stale_labels(fast);
            if (stale.empty()) break;
            label = stale[(pick >> 8) % stale.size()];
            ++stale_cancels;
          } else if (pick % 3 == 2) {
            const std::uint64_t form = (pick >> 4) % 4;
            EXPECT_FALSE(fast.cancel(never_issued(fast, form, label), "?"));
            EXPECT_FALSE(ref.cancel(never_issued(ref, form, label), "?"));
            break;
          }
          EXPECT_EQ(fast.cancel_label(label), ref.cancel_label(label));
          break;
        }
        case 4:
          EXPECT_EQ(fast.sim.step(fast.sim.now() + offset),
                    ref.sim.step(ref.sim.now() + offset));
          break;
        default:
          EXPECT_EQ(fast.sim.run_until(fast.sim.now() + offset),
                    ref.sim.run_until(ref.sim.now() + offset));
          break;
      }
      ASSERT_EQ(fast.sim.now(), ref.sim.now());
      ASSERT_EQ(fast.sim.executed_events(), ref.sim.executed_events());
      ASSERT_EQ(fast.log.size(), ref.log.size());
      for (; checked < fast.log.size(); ++checked)
        ASSERT_EQ(fast.log[checked], ref.log[checked]);
    }
    for (const auto& [periodic, successor] : fast.handoffs)
      if (slot_bits(fast.ids[periodic]) == slot_bits(fast.ids[successor]))
        ++slot_handoffs;
  }
  // The cases that need the generation check did occur.
  EXPECT_GT(stale_cancels, 0u);
  EXPECT_GT(slot_handoffs, 0u);
}

}  // namespace
}  // namespace lagover
