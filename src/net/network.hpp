// Simulated message-passing network on top of the discrete-event kernel.
// Messages are delivered asynchronously after a LatencyModel-determined
// delay; per-address traffic counters feed the load experiments
// (the RSS "bandwidth overload problem" is ultimately a message-count
// argument).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "net/latency_model.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace lagover::net {

struct TrafficCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Verdict of the fault layer on one message (see set_fault_filter):
/// drop it, delay it by extra time units, and/or deliver it twice.
struct FaultDecision {
  bool drop = false;
  double extra_delay = 0.0;
  bool duplicate = false;
};

/// Per-message fault hook. Kept as a plain std::function so the network
/// layer stays independent of the fault subsystem that implements it.
using FaultFilter = std::function<FaultDecision(Address from, Address to)>;

/// Typed network: Message is any copyable payload type. Undeliverable
/// messages (no registered handler at arrival time) are dropped and
/// counted, modelling crashes mid-flight.
template <typename Message>
class LAGOVER_THREAD_HOSTILE Network {
 public:
  using Handler = std::function<void(Address from, const Message&)>;

  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed)
      : sim_(sim), latency_(std::move(latency)), rng_(seed) {
    LAGOVER_EXPECTS(latency_ != nullptr);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers (or replaces) the message handler for an address.
  void register_node(Address address, Handler handler) {
    LAGOVER_EXPECTS(handler != nullptr);
    handlers_[address] = std::move(handler);
  }

  /// Removes the handler; in-flight messages to it will be dropped.
  void deregister_node(Address address) { handlers_.erase(address); }

  bool registered(Address address) const {
    return handlers_.count(address) != 0;
  }

  /// Installs (or clears, with nullptr) the per-message fault hook.
  /// Without a filter the send path is exactly the fault-free one.
  void set_fault_filter(FaultFilter filter) {
    fault_filter_ = std::move(filter);
  }

  /// Sends a message; delivery is scheduled after the model latency.
  /// `size_bytes` is accounting-only (0 = count messages, not bytes).
  void send(Address from, Address to, Message message,
            std::size_t size_bytes = 0) {
    auto& sent = counters_[from];
    ++sent.messages_sent;
    sent.bytes_sent += size_bytes;
    ++total_messages_;
    TELEM_COUNT("net.messages_sent", 1);
    double delay = latency_->latency(from, to, rng_);
    bool duplicate = false;
    if (fault_filter_) {
      const FaultDecision fate = fault_filter_(from, to);
      if (fate.drop) {
        ++fault_dropped_;
        TELEM_COUNT("net.fault_dropped", 1);
        return;
      }
      if (fate.extra_delay > 0.0) {
        ++fault_delayed_;
        TELEM_COUNT("net.fault_delayed", 1);
        delay += fate.extra_delay;
      }
      duplicate = fate.duplicate;
    }
    schedule_delivery(from, to, message, size_bytes, delay);
    if (duplicate) {
      ++fault_duplicated_;
      TELEM_COUNT("net.fault_duplicated", 1);
      schedule_delivery(from, to, std::move(message), size_bytes, delay);
    }
  }

  const TrafficCounters& counters(Address address) const {
    static const TrafficCounters kEmpty{};
    const auto it = counters_.find(address);
    return it == counters_.end() ? kEmpty : it->second;
  }

  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Messages lost / delayed / cloned by the fault filter.
  std::uint64_t fault_dropped() const noexcept { return fault_dropped_; }
  std::uint64_t fault_delayed() const noexcept { return fault_delayed_; }
  std::uint64_t fault_duplicated() const noexcept { return fault_duplicated_; }
  Simulator& simulator() noexcept { return sim_; }

 private:
  /// In-flight messages wait in `parcels_`, and the delivery event
  /// carries only the parcel's index: a payload of any size rides the
  /// simulator's inline actions, and a parcel slot is reused once its
  /// message lands.
  void schedule_delivery(Address from, Address to, Message message,
                         std::size_t size_bytes, double delay) {
    Parcel parcel{from, to, std::move(message), size_bytes};
    std::size_t index = parcels_.size();
    if (free_parcels_.empty()) {
      parcels_.push_back(std::move(parcel));
    } else {
      index = free_parcels_.back();
      free_parcels_.pop_back();
      parcels_[index] = std::move(parcel);
    }
    sim_.schedule_after(delay, [this, index] { deliver(index); });
  }

  void deliver(std::size_t index) {
    const Parcel parcel = std::move(parcels_[index]);
    free_parcels_.push_back(index);
    const auto it = handlers_.find(parcel.to);
    if (it == handlers_.end()) {
      ++dropped_;
      TELEM_COUNT("net.dropped_dead", 1);
      return;
    }
    auto& received = counters_[parcel.to];
    ++received.messages_received;
    received.bytes_received += parcel.size_bytes;
    TELEM_COUNT("net.messages_delivered", 1);
    it->second(parcel.from, parcel.message);
  }

  struct Parcel {
    Address from;
    Address to;
    Message message;
    std::size_t size_bytes;
  };

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  // Ordered maps (determinism lint): keyed access only today, but the
  // unordered_ variants are banned in src/net so a future iteration
  // (e.g. dumping per-address traffic) is deterministic by construction.
  std::map<Address, Handler> handlers_;
  std::map<Address, TrafficCounters> counters_;
  FaultFilter fault_filter_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_delayed_ = 0;
  std::uint64_t fault_duplicated_ = 0;
  std::vector<Parcel> parcels_;
  std::vector<std::size_t> free_parcels_;
};

/// Builds a FaultFilter from any object exposing deliver/extra_latency/
/// duplicate (i.e. fault::FaultInjector) and a clock, without making
/// net depend on the fault library.
template <typename Injector, typename Clock>
FaultFilter make_fault_filter(Injector& injector, Clock clock) {
  return [&injector, clock](Address from, Address to) {
    const double now = clock();
    FaultDecision fate;
    fate.drop = !injector.deliver(from, to, now);
    if (!fate.drop) {
      fate.extra_delay = injector.extra_latency(now);
      fate.duplicate = injector.duplicate(now);
    }
    return fate;
  };
}

}  // namespace lagover::net
