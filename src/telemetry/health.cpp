#include "telemetry/health.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover::telemetry {

namespace {

std::atomic<OverlayHealthRecorder*>& active_recorder() noexcept {
  static std::atomic<OverlayHealthRecorder*> recorder{nullptr};
  return recorder;
}

}  // namespace

OverlayHealthRecorder* OverlayHealthRecorder::active() noexcept {
  return active_recorder().load(std::memory_order_acquire);
}

void OverlayHealthRecorder::set_active(
    OverlayHealthRecorder* recorder) noexcept {
  active_recorder().store(recorder, std::memory_order_release);
}

OverlayHealthRecorder::OverlayHealthRecorder()
    : OverlayHealthRecorder(Config()) {}

OverlayHealthRecorder::OverlayHealthRecorder(Config config) : config_(config) {}

OverlayHealthRecorder::~OverlayHealthRecorder() {
  // Only deactivate if we are still the active recorder (another one
  // may have been installed since).
  OverlayHealthRecorder* expected = this;
  active_recorder().compare_exchange_strong(expected, nullptr,
                                            std::memory_order_acq_rel);
}

bool OverlayHealthRecorder::set_stream(const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path);
  if (!*out) return false;
  MutexLock lock(&mutex_);
  stream_ = std::move(out);
  return true;
}

void OverlayHealthRecorder::set_sample_mirror(
    std::function<void(const Json&)> fn) {
  MutexLock lock(&mutex_);
  sample_mirror_ = std::move(fn);
}

std::map<std::string, std::uint64_t>
OverlayHealthRecorder::subsystem_totals() {
  std::map<std::string, std::uint64_t> totals;
  MetricsRegistry::instance().for_each_counter(
      [&totals](const std::string& name, const Counter& counter) {
        const std::size_t dot = name.find('.');
        std::string prefix =
            dot == std::string::npos ? name : name.substr(0, dot);
        // The recorder's own counters would feed back into the deltas.
        if (prefix == "health") return;
        totals[std::move(prefix)] += counter.value();
      });
  return totals;
}

std::uint64_t OverlayHealthRecorder::begin_run(std::size_t nodes) {
  MutexLock lock(&mutex_);
  if (run_ != 0) end_run_locked();
  run_ = next_run_++;
  nodes_ = nodes;
  message_base_ = subsystem_totals();
  streak_start_ = -1;
  streak_len_ = 0;
  convergence_round_ = -1;
  have_sample_ = false;
  last_sample_ = HealthSample{};
  run_samples_ = 0;
  run_emitted_ = 0;
  stride_ = 1;

  Json header = Json::object();
  header.set("schema", Json::string("lagover.health.v1"));
  header.set("kind", Json::string("run"));
  header.set("run", Json::integer(static_cast<std::int64_t>(run_)));
  header.set("t", Json::number(sim_now()));
  const std::size_t consumers = nodes > 0 ? nodes - 1 : 0;
  header.set("nodes", Json::integer(static_cast<std::int64_t>(nodes)));
  header.set("consumers", Json::integer(static_cast<std::int64_t>(consumers)));
  header.set("stability_rounds", Json::integer(config_.stability_rounds));
  emit_locked(header);
  return run_;
}

Json OverlayHealthRecorder::sample_to_json(const HealthSample& sample) {
  Json line = Json::object();
  line.set("schema", Json::string("lagover.health.v1"));
  line.set("kind", Json::string("sample"));
  line.set("run", Json::integer(static_cast<std::int64_t>(sample.run)));
  line.set("round", Json::integer(sample.round));
  line.set("t", Json::number(sample.t));
  line.set("online", Json::integer(static_cast<std::int64_t>(sample.online)));
  line.set("orphans",
           Json::integer(static_cast<std::int64_t>(sample.orphans)));
  line.set("satisfied",
           Json::integer(static_cast<std::int64_t>(sample.satisfied)));
  line.set("unsatisfied",
           Json::integer(static_cast<std::int64_t>(sample.unsatisfied)));
  line.set("converged", Json::boolean(sample.converged));

  Json depth = Json::object();
  depth.set("max", Json::integer(sample.max_depth));
  depth.set("mean", Json::number(sample.mean_depth));
  depth.set("p50", Json::integer(sample.depth_p50));
  depth.set("p90", Json::integer(sample.depth_p90));
  depth.set("p99", Json::integer(sample.depth_p99));
  line.set("depth", std::move(depth));

  Json slack = Json::object();
  slack.set("min", Json::integer(sample.min_slack));
  slack.set("mean", Json::number(sample.mean_slack));
  slack.set("deepest", Json::integer(sample.deepest_slack));
  slack.set("violated",
            Json::integer(static_cast<std::int64_t>(sample.violated)));
  line.set("slack", std::move(slack));

  Json fanout = Json::object();
  fanout.set("edges", Json::integer(static_cast<std::int64_t>(sample.edges)));
  fanout.set("capacity",
             Json::integer(static_cast<std::int64_t>(sample.capacity)));
  fanout.set("saturated",
             Json::integer(static_cast<std::int64_t>(sample.saturated)));
  fanout.set("utilization", Json::number(sample.utilization));
  line.set("fanout", std::move(fanout));

  Json churn = Json::object();
  churn.set("attaches",
            Json::integer(static_cast<std::int64_t>(sample.attaches)));
  churn.set("detaches",
            Json::integer(static_cast<std::int64_t>(sample.detaches)));
  churn.set("offlines",
            Json::integer(static_cast<std::int64_t>(sample.offlines)));
  churn.set("onlines",
            Json::integer(static_cast<std::int64_t>(sample.onlines)));
  line.set("churn", std::move(churn));

  Json messages = Json::object();
  for (const auto& [prefix, delta] : sample.messages)
    messages.set(prefix, Json::integer(static_cast<std::int64_t>(delta)));
  line.set("messages", std::move(messages));
  return line;
}

void OverlayHealthRecorder::emit_locked(const Json& line) {
  ++stream_lines_;
  if (stream_ != nullptr) *stream_ << line.dump() << '\n';
}

void OverlayHealthRecorder::note_round(std::uint64_t run,
                                       HealthSample sample) {
  MutexLock lock(&mutex_);
  if (run == 0 || run != run_) return;
  sample.run = run_;
  sample.round = static_cast<std::int64_t>(std::llround(sample.t));
  std::map<std::string, std::uint64_t> totals = subsystem_totals();
  for (const auto& [prefix, value] : totals) {
    const auto base = message_base_.find(prefix);
    const std::uint64_t delta =
        base == message_base_.end() ? value : value - base->second;
    if (delta > 0) sample.messages[prefix] = delta;
  }
  message_base_ = std::move(totals);

  // Convergence tracker: latch the first round whose converged state
  // held for `stability_rounds` consecutive samples.
  if (sample.converged) {
    if (streak_len_ == 0) streak_start_ = sample.round;
    ++streak_len_;
    if (streak_len_ >= config_.stability_rounds && convergence_round_ < 0) {
      convergence_round_ = streak_start_;
      TELEM_GAUGE("health.convergence_round",
                  static_cast<double>(convergence_round_));
    }
  } else {
    streak_len_ = 0;
    streak_start_ = -1;
  }

  TELEM_COUNT("health.samples", 1);
  TELEM_GAUGE("health.orphans", static_cast<double>(sample.orphans));
  TELEM_GAUGE("health.unsatisfied", static_cast<double>(sample.unsatisfied));
  TELEM_GAUGE("health.max_depth", static_cast<double>(sample.max_depth));
  TELEM_GAUGE("health.min_slack", static_cast<double>(sample.min_slack));
  TELEM_GAUGE("health.fanout_utilization", sample.utilization);

  ++samples_total_;
  ++run_samples_;
  // Bounded stream: every stride-th sample goes out; once the emitted
  // budget is hit the stride doubles, so a run of any length writes
  // O(stream_budget) sample lines. Serializing is the expensive part
  // of a round, so the Json line is only built when someone consumes
  // it this round.
  const bool emit_now = (run_samples_ - 1) % stride_ == 0;
  if (sample_mirror_ || (emit_now && stream_ != nullptr)) {
    const Json line = sample_to_json(sample);
    if (sample_mirror_) sample_mirror_(line);
    if (emit_now && stream_ != nullptr) *stream_ << line.dump() << '\n';
  }
  if (emit_now) {
    ++stream_lines_;  // stride bookkeeping runs even with no sink
    if (++run_emitted_ >= config_.stream_budget) {
      stride_ *= 2;
      run_emitted_ = 0;
    }
  }
  last_sample_ = std::move(sample);
  have_sample_ = true;
}

void OverlayHealthRecorder::end_run_locked() {
  if (run_ == 0) return;
  HealthRunResult result;
  result.run = run_;
  result.nodes = nodes_;
  result.rounds = have_sample_ ? last_sample_.round : 0;
  result.convergence_round = convergence_round_;
  result.converged = convergence_round_ >= 0;
  result.final = last_sample_;

  Json line = Json::object();
  line.set("schema", Json::string("lagover.health.v1"));
  line.set("kind", Json::string("run_end"));
  line.set("run", Json::integer(static_cast<std::int64_t>(run_)));
  line.set("rounds", Json::integer(result.rounds));
  line.set("converged", Json::boolean(result.converged));
  line.set("convergence_round", Json::integer(result.convergence_round));
  line.set("samples",
           Json::integer(static_cast<std::int64_t>(run_samples_)));
  line.set("stride", Json::integer(static_cast<std::int64_t>(stride_)));
  if (have_sample_) line.set("final", sample_to_json(result.final));
  emit_locked(line);

  completed_.push_back(std::move(result));
  run_ = 0;
}

void OverlayHealthRecorder::end_run(std::uint64_t run) {
  MutexLock lock(&mutex_);
  if (run == 0 || run != run_) return;
  end_run_locked();
}

void OverlayHealthRecorder::finalize() {
  MutexLock lock(&mutex_);
  end_run_locked();
}

std::uint64_t OverlayHealthRecorder::current_run() const {
  MutexLock lock(&mutex_);
  return run_;
}

std::size_t OverlayHealthRecorder::completed_run_count() const {
  MutexLock lock(&mutex_);
  return completed_.size();
}

std::vector<HealthRunResult> OverlayHealthRecorder::completed_runs() const {
  MutexLock lock(&mutex_);
  return completed_;
}

std::uint64_t OverlayHealthRecorder::stream_lines() const {
  MutexLock lock(&mutex_);
  return stream_lines_;
}

std::uint64_t OverlayHealthRecorder::samples_total() const {
  MutexLock lock(&mutex_);
  return samples_total_;
}

Json OverlayHealthRecorder::to_json() {
  MutexLock lock(&mutex_);
  end_run_locked();
  Json block = Json::object();
  block.set("schema", Json::string("lagover.health.v1"));
  block.set("stability_rounds", Json::integer(config_.stability_rounds));
  block.set("runs",
            Json::integer(static_cast<std::int64_t>(completed_.size())));
  std::vector<std::int64_t> rounds;
  for (const HealthRunResult& result : completed_)
    if (result.converged) rounds.push_back(result.convergence_round);
  block.set("converged_runs",
            Json::integer(static_cast<std::int64_t>(rounds.size())));
  if (!rounds.empty()) {
    std::sort(rounds.begin(), rounds.end());
    Json stats = Json::object();
    stats.set("min", Json::integer(rounds.front()));
    stats.set("median", Json::integer(rounds[rounds.size() / 2]));
    stats.set("max", Json::integer(rounds.back()));
    block.set("convergence_round", std::move(stats));
  }
  block.set("samples",
            Json::integer(static_cast<std::int64_t>(samples_total_)));
  block.set("stream_lines",
            Json::integer(static_cast<std::int64_t>(stream_lines_)));
  for (auto it = completed_.rbegin(); it != completed_.rend(); ++it) {
    if (it->rounds == 0 && it->final.online == 0) continue;
    block.set("final", sample_to_json(it->final));
    break;
  }
  return block;
}

}  // namespace lagover::telemetry
