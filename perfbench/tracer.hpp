// In-memory span tracer for the benchmark's traced run. Spans are taken
// from outside the libraries, at their public seams: an Oracle decorator
// handed to set_oracle(), a ChurnModel decorator handed to set_churn(),
// and scopes the driver opens around its own calls into the engines and
// the feed. Each span records one call into one layer; nesting gives
// every span a parent, and a layer's self time is its span time minus
// the part its child spans cover.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/oracle.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The layers a span can be charged to.
enum class Layer : std::uint8_t {
  kWorkload,  ///< generate_workload
  kEngine,    ///< one Engine::run_round call
  kAsync,     ///< one AsyncEngine::run_for chunk
  kOracle,    ///< one Oracle::sample call
  kChurn,     ///< one ChurnModel::decide call
  kFeed,      ///< one run_lossy_dissemination call
  kCount,
};

inline const char* layer_name(Layer layer) {
  constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
      kNames = {"workload", "engine", "async", "oracle", "churn", "feed"};
  return kNames[static_cast<std::size_t>(layer)];
}

/// Which part of a benchmark instance a span fell in.
enum class Phase : std::uint8_t { kSetup, kTimed, kCount };

/// Per-(phase, layer) totals, folded in as spans close.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    Layer layer;
    Phase phase;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  std::uint32_t begin(Layer layer) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back().index;
    spans_.push_back({layer, phase_, parent, now_ns(), 0});
    open_.push_back({index, 0});
    return index;
  }

  void end(std::uint32_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    const std::uint64_t duration = span.end_ns - span.start_ns;
    const std::uint64_t child_ns = open_.back().child_ns;
    open_.pop_back();
    if (!open_.empty()) open_.back().child_ns += duration;
    LayerTotals& totals = totals_[static_cast<std::size_t>(span.phase)]
                                 [static_cast<std::size_t>(span.layer)];
    ++totals.calls;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns;
  }

  void set_phase(Phase phase) { phase_ = phase; }

  const LayerTotals& totals(Phase phase, Layer layer) const {
    return totals_[static_cast<std::size_t>(phase)]
                  [static_cast<std::size_t>(layer)];
  }

  std::size_t span_count() const { return spans_.size(); }

  static constexpr const char* kCsvHeader =
      "instance,index,layer,phase,parent,start_ns,end_ns\n";

  /// Appends every span as one CSV row (columns as in kCsvHeader): the
  /// parent is -1 for roots, start and end are ns after the first span.
  void write_csv(std::FILE* out, std::uint64_t instance) const {
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out, "%llu,%zu,%s,%s,%lld,%llu,%llu\n",
                   static_cast<unsigned long long>(instance), i,
                   layer_name(span.layer),
                   span.phase == Phase::kSetup ? "setup" : "timed",
                   span.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.start_ns - origin),
                   static_cast<unsigned long long>(span.end_ns - origin));
    }
  }

 private:
  struct Open {
    std::uint32_t index;
    std::uint64_t child_ns;
  };

  Phase phase_ = Phase::kSetup;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::array<std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)>,
             static_cast<std::size_t>(Phase::kCount)>
      totals_{};
};

/// RAII span; a null recorder makes it a no-op, so the untraced run
/// shares the driver code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer) : recorder_(recorder) {
    if (recorder_ != nullptr) index_ = recorder_->begin(layer);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_ = 0;
};

/// Oracle decorator: forwards every query to the wrapped Oracle (same
/// RNG, same overlay) inside an oracle span.
class TracedOracle final : public lagover::Oracle {
 public:
  TracedOracle(std::unique_ptr<lagover::Oracle> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  lagover::OracleKind kind() const noexcept override { return inner_->kind(); }

 private:
  std::optional<lagover::NodeId> sample_impl(lagover::NodeId querier,
                                             const lagover::Overlay& overlay,
                                             lagover::Rng& rng) override {
    const ScopedSpan span(&recorder_, Layer::kOracle);
    return inner_->sample(querier, overlay, rng);
  }

  std::unique_ptr<lagover::Oracle> inner_;
  SpanRecorder& recorder_;
};

/// ChurnModel decorator: forwards decide() inside a churn span and
/// counts the leaves and joins it hands the engine.
class TracedChurn final : public lagover::ChurnModel {
 public:
  TracedChurn(std::unique_ptr<lagover::ChurnModel> inner,
              SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  Decision decide(lagover::Round round, const lagover::Overlay& overlay,
                  lagover::Rng& rng) override {
    const ScopedSpan span(&recorder_, Layer::kChurn);
    Decision decision = inner_->decide(round, overlay, rng);
    leaves_ += decision.leave.size();
    joins_ += decision.join.size();
    return decision;
  }

  std::uint64_t leaves() const { return leaves_; }
  std::uint64_t joins() const { return joins_; }

 private:
  std::unique_ptr<lagover::ChurnModel> inner_;
  SpanRecorder& recorder_;
  std::uint64_t leaves_ = 0;
  std::uint64_t joins_ = 0;
};

}  // namespace perfbench
