#include "metrics/recovery.hpp"

#include <algorithm>

namespace lagover {

RecoveryRecorder::RecoveryRecorder(const Overlay& overlay,
                                   fault::FaultPlan plan)
    : overlay_(overlay), plan_(std::move(plan)) {}

void RecoveryRecorder::sample(double t) {
  orphans_.add(t, static_cast<double>(overlay_.orphan_count()));
  satisfied_.add(t, overlay_.satisfied_fraction());
}

std::vector<RecoveryRecorder::WindowRecovery>
RecoveryRecorder::window_recoveries() const {
  std::vector<WindowRecovery> out;
  const auto& windows = plan_.windows();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    WindowRecovery r;
    r.window = w;
    r.window_end = windows[w].end;
    for (std::size_t i = 0; i < orphans_.size(); ++i) {
      const double t = orphans_.time_at(i);
      if (windows[w].contains(t)) {
        r.peak_orphans = std::max(
            r.peak_orphans, static_cast<std::size_t>(orphans_.value_at(i)));
      }
      if (!r.recovered && t >= windows[w].end && healthy_at(i)) {
        r.recovered = true;
        r.recovered_at = t;
        r.time_to_reconverge = t - windows[w].end;
      }
    }
    out.push_back(r);
  }
  return out;
}

double RecoveryRecorder::final_time_to_reconverge() const {
  const double last_end = plan_.last_end();
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    const double t = orphans_.time_at(i);
    if (t >= last_end && healthy_at(i)) return t - last_end;
  }
  return -1.0;
}

bool RecoveryRecorder::healthy_at_end() const {
  return !orphans_.empty() && healthy_at(orphans_.size() - 1);
}

}  // namespace lagover
