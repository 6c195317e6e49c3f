#include "baseline/polling.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "feed/feed.hpp"

namespace lagover::baseline {

AllPollAnalysis analyze_all_poll(const Population& population) {
  AllPollAnalysis analysis;
  analysis.consumers = population.consumers.size();
  for (const NodeSpec& spec : population.consumers)
    analysis.source_requests_per_unit +=
        1.0 / static_cast<double>(spec.constraints.latency);
  return analysis;
}

namespace {

/// One consumer's poll loop: pulls everything new, then schedules a copy
/// of itself one period later.
struct PollLoop {
  Simulator* sim;
  feed::FeedSource* source;
  feed::StalenessTracker* tracker;
  std::vector<std::uint64_t>* last_pulled;
  NodeId id;
  double period;

  void operator()() const {
    for (const feed::FeedItem& item : source->pull((*last_pulled)[id])) {
      (*last_pulled)[id] = item.seq;
      tracker->record(id, item, sim->now());
    }
    sim->schedule_after(period, *this);
  }
};

}  // namespace

feed::DisseminationReport run_all_poll(
    const Population& population, const feed::DisseminationConfig& config,
    SimTime duration) {
  validate(population);
  Simulator sim;
  feed::FeedSource source(sim, config.source);
  feed::StalenessTracker tracker(population.consumers.size() + 1);
  Rng rng(config.seed ^ 0xA77B011ULL);
  std::vector<std::uint64_t> last_pulled(population.consumers.size() + 1, 0);

  source.start();
  for (const NodeSpec& spec : population.consumers) {
    const double period = static_cast<double>(spec.constraints.latency);
    const double phase = rng.uniform_real(0.0, period);
    sim.schedule_after(phase, PollLoop{&sim, &source, &tracker,
                                       &last_pulled, spec.id, period});
  }

  sim.run_until(duration);

  feed::DisseminationReport report;
  report.duration = duration;
  report.items_published = source.published();
  report.source_requests = source.requests();
  report.source_empty_requests = source.empty_requests();
  report.source_request_rate =
      duration > 0.0 ? static_cast<double>(source.requests()) / duration : 0.0;
  report.push_messages = 0;
  report.pollers = population.consumers.size();
  for (const NodeSpec& spec : population.consumers) {
    feed::NodeDeliveryStats stats;
    stats.node = spec.id;
    stats.items = tracker.items_received(spec.id);
    stats.max_staleness = tracker.max_staleness(spec.id);
    stats.mean_staleness = tracker.mean_staleness(spec.id);
    stats.latency_constraint = spec.constraints.latency;
    stats.constraint_met =
        stats.max_staleness <=
        static_cast<double>(stats.latency_constraint) + 1e-9;
    if (!stats.constraint_met) ++report.violations;
    report.nodes.push_back(stats);
  }
  return report;
}

}  // namespace lagover::baseline
