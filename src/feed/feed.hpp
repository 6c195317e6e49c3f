// RSS-style feed model: a pull-only source (paper Section 2.1.2 — "the
// information source can support only pulls from clients, as is
// currently for RSS") publishing small items on a schedule, plus the
// per-consumer staleness bookkeeping of the all-poll baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace lagover::feed {

struct FeedItem {
  std::uint64_t seq = 0;
  SimTime published_at = 0.0;
};

enum class PublishSchedule {
  kPeriodic,  ///< one item every `publish_period`
  kPoisson,   ///< exponential inter-arrival with mean `publish_period`
};

struct SourceConfig {
  PublishSchedule schedule = PublishSchedule::kPeriodic;
  double publish_period = 3.0;
  std::uint64_t seed = 1;
};

/// The pull-only feed server. Publishes via the simulator; answers
/// pull(since_seq) and counts every request — the "bandwidth overload"
/// metric is the request count at this object.
class FeedSource {
 public:
  FeedSource(Simulator& sim, SourceConfig config);

  /// Starts the publication schedule (idempotent).
  void start();

  /// Publish hook (push-capable sources): invoked synchronously for
  /// every newly published item.
  void set_on_publish(std::function<void(const FeedItem&)> hook) {
    on_publish_ = std::move(hook);
  }

  /// RSS GET: all items newer than `since_seq`. Counts one request
  /// regardless of whether anything new exists (the paper's complaint:
  /// "clients poll the source irrespective of whether there are any new
  /// updates").
  std::vector<FeedItem> pull(std::uint64_t since_seq);

  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t empty_requests() const noexcept { return empty_requests_; }
  std::uint64_t published() const noexcept { return items_.size(); }
  const std::vector<FeedItem>& items() const noexcept { return items_; }

 private:
  void publish_next();

  Simulator& sim_;
  SourceConfig config_;
  Rng rng_;
  bool started_ = false;
  std::vector<FeedItem> items_;
  std::function<void(const FeedItem&)> on_publish_;
  std::uint64_t requests_ = 0;
  std::uint64_t empty_requests_ = 0;
};

/// Per-consumer staleness accounting: staleness of an item at a node is
/// receipt time minus publication time.
class StalenessTracker {
 public:
  explicit StalenessTracker(std::size_t node_count);

  void record(std::uint32_t node, const FeedItem& item, SimTime received_at);

  std::uint64_t items_received(std::uint32_t node) const;
  double max_staleness(std::uint32_t node) const;
  double mean_staleness(std::uint32_t node) const;

 private:
  struct PerNode {
    std::uint64_t count = 0;
    double max = 0.0;
    double sum = 0.0;
  };
  std::vector<PerNode> per_node_;
};

}  // namespace lagover::feed
