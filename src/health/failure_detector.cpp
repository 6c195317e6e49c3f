#include "health/failure_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace lagover::health {

PhiAccrualDetector::PhiAccrualDetector(std::size_t node_count,
                                       PhiConfig config) {
  resize(node_count, config);
}

void PhiAccrualDetector::resize(std::size_t node_count, PhiConfig config) {
  LAGOVER_EXPECTS(config.threshold > 0.0);
  LAGOVER_EXPECTS(config.window >= 2);
  LAGOVER_EXPECTS(config.min_std_fraction > 0.0);
  LAGOVER_EXPECTS(config.acceptable_pause >= 0.0);
  LAGOVER_EXPECTS(config.min_samples >= 2);
  config_ = config;
  links_.assign(node_count, Link{});
  intervals_.clear();
}

void PhiAccrualDetector::heartbeat(NodeId link, double now) {
  LAGOVER_EXPECTS(link < links_.size());
  Link& state = links_[link];
  if (state.last_heartbeat >= 0.0) {
    const double interval = now - state.last_heartbeat;
    if (interval > 0.0) {
      if (intervals_.empty())
        intervals_.assign(links_.size() * config_.window, 0.0);
      double* window = intervals_.data() + link * config_.window;
      if (state.count == config_.window) {
        const double evicted = window[state.next];
        state.sum -= evicted;
        state.sum_sq -= evicted * evicted;
      } else {
        ++state.count;
      }
      window[state.next] = interval;
      state.next = (state.next + 1) % config_.window;
      state.sum += interval;
      state.sum_sq += interval * interval;
    }
  }
  state.last_heartbeat = now;
}

bool PhiAccrualDetector::primed(NodeId link) const {
  LAGOVER_EXPECTS(link < links_.size());
  return links_[link].count >= config_.min_samples;
}

double PhiAccrualDetector::phi(NodeId link, double now) const {
  LAGOVER_EXPECTS(link < links_.size());
  const Link& state = links_[link];
  if (state.count < config_.min_samples || state.last_heartbeat < 0.0)
    return 0.0;
  const double elapsed =
      now - state.last_heartbeat - config_.acceptable_pause;
  if (elapsed <= 0.0) return 0.0;
  const double n = static_cast<double>(state.count);
  const double mean = state.sum / n;
  const double variance =
      std::max(0.0, state.sum_sq / n - mean * mean);
  const double sigma =
      std::max(std::sqrt(variance), config_.min_std_fraction * mean);
  // P(silence this long is benign) under the fitted normal; phi is its
  // negative decimal log, clamped so a dead link cannot overflow.
  const double z = (elapsed - mean) / (sigma * std::sqrt(2.0));
  const double p_later = 0.5 * std::erfc(z);
  if (p_later <= 1e-30) return 30.0;
  return -std::log10(p_later);
}

bool PhiAccrualDetector::suspect(NodeId link, double now) const {
  return phi(link, now) >= config_.threshold;
}

void PhiAccrualDetector::reset(NodeId link) {
  LAGOVER_EXPECTS(link < links_.size());
  Link& state = links_[link];
  state.next = 0;
  state.count = 0;
  state.last_heartbeat = -1.0;
  state.sum = 0.0;
  state.sum_sq = 0.0;
}

std::size_t PhiAccrualDetector::interval_count(NodeId link) const {
  LAGOVER_EXPECTS(link < links_.size());
  return links_[link].count;
}

double PhiAccrualDetector::mean_interval(NodeId link) const {
  LAGOVER_EXPECTS(link < links_.size());
  const Link& state = links_[link];
  if (state.count == 0) return 0.0;
  return state.sum / static_cast<double>(state.count);
}

}  // namespace lagover::health
