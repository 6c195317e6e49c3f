// Multi-subscriber event bus. This is the fan-out point of the
// telemetry substrate: a run's runtime publishes every TraceEvent to
// the run's bus, and any number of recorders, validators, and
// exporters listen without the engine knowing about them.
//
// Concurrency: the bus is internally synchronized (one Mutex per bus
// guards the subscriber list and the publish count), so the
// process-global buses in telemetry.hpp/span.hpp can take publishes
// from parallel construction shards without losing events.
// Handlers run under the bus lock — publishes are totally ordered and
// a handler never races another handler on the same bus — which also
// means a handler must never publish to (or mutate subscriptions of)
// ITS OWN bus: that self-reentry deadlocks, exactly where the old
// single-threaded bus would have recursed forever. Handlers touching
// other buses or the metrics registry are fine (lock order is always
// bus -> subscriber state -> registry, never backwards).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace lagover::telemetry {

/// Fan-out bus for one event type. Subscribers are invoked in
/// subscription order. Publishing with no subscribers is a lock and a
/// count, so instrumented hot paths stay cheap when nobody is watching.
template <typename Event>
class LAGOVER_THREAD_SAFE EventBus {
 public:
  using Handler = std::function<void(const Event&)>;
  using SubscriptionId = std::uint64_t;

  /// Registers a handler; returns an id usable with unsubscribe().
  SubscriptionId subscribe(Handler handler) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    const SubscriptionId id = next_id_++;
    subscribers_.push_back({id, std::move(handler)});
    return id;
  }

  /// Removes a subscription; unknown ids are a no-op (returns false).
  bool unsubscribe(SubscriptionId id) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    for (std::size_t i = 0; i < subscribers_.size(); ++i) {
      if (subscribers_[i].id != id) continue;
      subscribers_.erase(subscribers_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return true;
    }
    return false;
  }

  bool has_subscribers() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return !subscribers_.empty();
  }

  /// Delivers `event` to every subscriber. Must not be called from a
  /// handler of this same bus (self-reentry deadlocks; see the header
  /// comment).
  void publish(const Event& event) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    ++published_;
    for (const Subscriber& s : subscribers_) s.handler(event);
  }

  std::uint64_t published() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return published_;
  }

 private:
  struct Subscriber {
    SubscriptionId id;
    Handler handler;
  };

  mutable Mutex mutex_;
  std::vector<Subscriber> subscribers_ LAGOVER_GUARDED_BY(mutex_);
  SubscriptionId next_id_ LAGOVER_GUARDED_BY(mutex_) = 1;
  std::uint64_t published_ LAGOVER_GUARDED_BY(mutex_) = 0;
};

}  // namespace lagover::telemetry
