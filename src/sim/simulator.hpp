// Discrete-event simulation kernel: a time-ordered event queue with
// stable FIFO ordering for simultaneous events, cancellable handles, and
// periodic timers. This is the substrate for the asynchronous LagOver
// construction engine and the feed-dissemination simulations.
//
// Each pending event lives in a slot of one slab, with its action stored
// inline, and released slots are reused; once the slab and the heap have
// grown to a run's peak number of pending events, scheduling allocates
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace lagover {

/// Simulated time in abstract "time units" (the paper's latency unit;
/// a depth-1 node's poll period is 1.0).
using SimTime = double;

/// Identifies a scheduled event so it can be cancelled: its slot in the
/// low 32 bits and the slot's generation in the high 32. Never 0.
using EventId = std::uint64_t;

/// Single-threaded discrete-event simulator. Events scheduled for the
/// same timestamp fire in scheduling order (stable), which keeps runs
/// reproducible.
class LAGOVER_THREAD_HOSTILE Simulator {
 public:
  /// A move-only `void()` callable stored inline. A capture larger than
  /// kCapacity bytes, over-aligned, or with a throwing move fails to
  /// compile instead of allocating. A callable equal to nullptr (an
  /// empty function wrapper or a null function pointer) makes an empty
  /// Action, which scheduling rejects.
  class Action {
   public:
    static constexpr std::size_t kCapacity = 64;

    Action() noexcept = default;
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Action> &&
                                          std::is_invocable_r_v<void, Fn&>>>
    Action(F&& f) {
      static_assert(sizeof(Fn) <= kCapacity, "Action capture too large");
      static_assert(alignof(Fn) <= alignof(void*), "Action over-aligned");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "Action capture has a throwing move");
      if constexpr (requires { f == nullptr; })
        if (f == nullptr) return;
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn>;
    }
    Action(Action&& other) noexcept { *this = std::move(other); }
    Action& operator=(Action&& other) noexcept {
      if (ops_ != nullptr) ops_->relocate(buf_, nullptr);
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
      return *this;
    }
    ~Action() {
      if (ops_ != nullptr) ops_->relocate(buf_, nullptr);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }
    void operator()() { ops_->call(buf_); }

   private:
    struct Ops {
      void (*call)(void* self);
      /// Move-constructs `from`'s callable into `to` (unless `to` is
      /// null) and destroys it.
      void (*relocate)(void* from, void* to) noexcept;
    };
    template <typename Fn>
    static constexpr Ops kOps{
        [](void* self) { (*static_cast<Fn*>(self))(); },
        [](void* from, void* to) noexcept {
          Fn& fn = *static_cast<Fn*>(from);
          if (to != nullptr) ::new (to) Fn(std::move(fn));
          fn.~Fn();
        }};

    alignas(void*) unsigned char buf_[kCapacity];
    const Ops* ops_ = nullptr;
  };

  SimTime now() const noexcept { return now_; }
  std::uint64_t executed_events() const noexcept { return executed_; }

  /// Schedules `action` at absolute time `when` (>= now).
  EventId schedule_at(SimTime when, Action action);

  /// Schedules `action` after a relative delay (>= 0).
  EventId schedule_after(SimTime delay, Action action);

  /// Cancels a pending event; cancelling an already-fired or unknown id
  /// is a no-op and returns false.
  bool cancel(EventId id);

  /// Runs events until the queue empties or `horizon` is passed; the
  /// clock ends at min(horizon, last event time). Returns the number of
  /// events executed by this call.
  std::uint64_t run_until(SimTime horizon);

  /// Runs until the queue is empty.
  std::uint64_t run();

  /// Executes exactly one event if any is pending before `horizon`;
  /// returns whether an event fired.
  bool step(SimTime horizon);

  /// Schedules `action` every `period` starting at now + period, until
  /// `cancel` is called on the returned id or the horizon is reached.
  /// The id remains valid across firings, and the same action object
  /// fires each time, so its captures keep their state.
  EventId schedule_periodic(SimTime period, Action action);

 private:
  /// A heap entry names its event by slot and generation; it is stale,
  /// and skipped, once the slot's generation has moved on.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  /// One event's storage. The generation is odd while the slot holds an
  /// event and is bumped when it is taken and when it is released, so
  /// an id or heap entry of an earlier occupant never matches again.
  struct Slot {
    Action action;
    SimTime period = 0.0;  ///< > 0 for a periodic timer
    std::uint32_t generation = 0;
  };

  EventId insert(SimTime when, SimTime period, Action action);
  /// Frees the slot; its action must already have been moved out.
  void release(std::uint32_t slot);
  bool current(std::uint32_t slot, std::uint32_t generation) const noexcept {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< released slots, reused last-in first
};

}  // namespace lagover
