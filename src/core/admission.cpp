#include "core/admission.hpp"

#include <cassert>
#include <cmath>

#include "telemetry/metrics.hpp"

namespace lagover {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  assert(!config_.empty());
  assert(config_.window > 0.0);
}

void AdmissionController::roll_to(double now) {
  const auto index =
      static_cast<std::int64_t>(std::floor(now / config_.window));
  if (!started_) {
    started_ = true;
    window_index_ = index;
    return;
  }
  // Evaluate every boundary crossed; idle windows count as clean, so a
  // lull lets the saturation streak (and a half-open breaker) recover.
  while (window_index_ < index) {
    close_window();
    ++window_index_;
    window_count_ = 0;
    window_saturated_ = false;
  }
}

void AdmissionController::close_window() {
  if (window_saturated_) {
    ++saturated_streak_;
    clean_streak_ = 0;
  } else {
    ++clean_streak_;
    saturated_streak_ = 0;
  }
  switch (state_) {
    case Breaker::kClosed:
      if (saturated_streak_ >= config_.breaker_trip_windows)
        trip(static_cast<double>(window_index_ + 1) * config_.window);
      break;
    case Breaker::kHalfOpen:
      if (window_saturated_) {
        // The probe window saturated again: the crowd is still there.
        trip(static_cast<double>(window_index_ + 1) * config_.window);
      } else if (clean_streak_ >= config_.breaker_close_windows) {
        state_ = Breaker::kClosed;
        ++breaker_closes_;
        TELEM_GAUGE("oracle.breaker_open", 0.0);
      }
      break;
    case Breaker::kOpen:
      break;
  }
}

void AdmissionController::trip(double now) {
  state_ = Breaker::kOpen;
  opened_at_ = now;
  saturated_streak_ = 0;
  clean_streak_ = 0;
  ++breaker_trips_;
  TELEM_COUNT("oracle.breaker_trips", 1);
  TELEM_GAUGE("oracle.breaker_open", 1.0);
}

bool AdmissionController::open(double now) noexcept {
  if (state_ == Breaker::kOpen && now >= opened_at_ + config_.breaker_cooldown)
    state_ = Breaker::kHalfOpen;
  return state_ == Breaker::kOpen;
}

AdmissionController::Verdict AdmissionController::on_query(double now) {
  roll_to(now);
  if (open(now)) {
    ++rejected_;
    TELEM_COUNT("oracle.admission_rejected", 1);
    return Verdict::kReject;
  }
  ++window_count_;
  if (static_cast<double>(window_count_) > config_.rate_limit) {
    window_saturated_ = true;
    if (config_.serve_stale) {
      ++stale_verdicts_;
      TELEM_COUNT("oracle.admission_stale", 1);
      return Verdict::kStale;
    }
    ++rejected_;
    TELEM_COUNT("oracle.admission_rejected", 1);
    return Verdict::kReject;
  }
  ++admitted_;
  TELEM_COUNT("oracle.admission_admitted", 1);
  return Verdict::kAdmit;
}

}  // namespace lagover
