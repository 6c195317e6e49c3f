// Multi-subscriber event bus with a bounded ring-buffer retention
// window. This is the fan-out point of the telemetry substrate: a
// run's runtime publishes every TraceEvent to the run's bus, and any
// number of recorders, validators, and exporters listen without the
// engine knowing about them.
//
// Concurrency: the bus is internally synchronized (one Mutex per bus
// guards the subscriber list, the retention ring, and the counters),
// so the process-global buses in telemetry.hpp/span.hpp can take
// publishes from parallel construction shards without losing events.
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
/// subscription order; the optional retention ring keeps the most
/// recent `capacity` events for late-coming consumers (e.g. a crash
/// dump of the last N events). Publishing with no subscribers and no
/// retention is a lock plus two branches, so instrumented hot paths
/// stay cheap when nobody is watching.
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

  /// Delivers `event` to every subscriber, then retains it in the ring
  /// (when retention is enabled). Must not be called from a handler of
  /// this same bus (self-reentry deadlocks; see the header comment).
  void publish(const Event& event) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    ++published_;
    for (const Subscriber& s : subscribers_) s.handler(event);
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[head_] = event;
      head_ = (head_ + 1) % capacity_;
      ++overwritten_;
    }
  }

  /// Bounds the retention ring to `capacity` events (0 disables and
  /// clears). Shrinking keeps the newest events.
  void set_retention(std::size_t capacity) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    std::vector<Event> keep = recent_locked();
    if (keep.size() > capacity)
      keep.erase(keep.begin(),
                 keep.end() - static_cast<std::ptrdiff_t>(capacity));
    capacity_ = capacity;
    ring_ = std::move(keep);
    // Preallocate the whole ring up front: once retention is set,
    // publish() reuses slots by assignment and never reallocates on
    // the hot path.
    ring_.reserve(capacity_);
    head_ = 0;
    // A full ring restarts overwriting at slot 0, which is the oldest
    // retained event — exactly the ring invariant.
  }

  std::size_t retention() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return capacity_;
  }
  std::size_t retained_count() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return ring_.size();
  }
  std::uint64_t published() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return published_;
  }
  /// Events pushed out of the ring by newer ones (ring overflow).
  std::uint64_t overwritten() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return overwritten_;
  }

  /// Retained events, oldest first.
  std::vector<Event> recent() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return recent_locked();
  }

 private:
  struct Subscriber {
    SubscriptionId id;
    Handler handler;
  };

  std::vector<Event> recent_locked() const LAGOVER_REQUIRES(mutex_) {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
  }

  mutable Mutex mutex_;
  std::vector<Subscriber> subscribers_ LAGOVER_GUARDED_BY(mutex_);
  SubscriptionId next_id_ LAGOVER_GUARDED_BY(mutex_) = 1;
  std::vector<Event> ring_ LAGOVER_GUARDED_BY(mutex_);
  std::size_t head_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::size_t capacity_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::uint64_t published_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::uint64_t overwritten_ LAGOVER_GUARDED_BY(mutex_) = 0;
};

}  // namespace lagover::telemetry
