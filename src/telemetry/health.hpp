// Overlay health observatory: per-round tree-quality samples of a
// construction run, plus what the run's samples add up to.
//
// The overlay is the structural index (core/overlay.hpp keeps every
// node's Root and DelayAt and the orphan and satisfied counts), so the
// engines' shared NodeRuntime builds each HealthSample in one pass over
// its own overlay — depth histogram, latency-slack distribution
// l_i - DelayAt, fanout utilization, orphan/unsatisfied counts, churn
// deltas — and hands it to note_round(). The recorder keeps no copy of
// the forest. On top of the samples it keeps:
//   * a convergence tracker — the first round where every constraint
//     holds and stays stable for `stability_rounds` consecutive samples
//     is latched as the run's convergence round,
//   * per-subsystem message-counter deltas, read from the metrics
//     registry at each sample,
//   * a bounded-memory downsampling streamer — "lagover.health.v1"
//     JSONL, one run header + stride-thinned samples + a run_end
//     summary per construction run (the stride doubles whenever the
//     emitted-line budget is hit, so file size stays bounded),
//   * a sample mirror, through which flight-recorder bundles keep
//     their own ring of recent samples.
//
// Cost model, like every telemetry layer before it: no active recorder
// means engines skip registration and sampling entirely — default-off
// runs are byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace lagover::telemetry {

/// One sampled round's tree-quality aggregates. Delays follow the
/// paper's DelayAt: tree depth when connected to the source, optimistic
/// depth-within-group + 1 when detached.
struct HealthSample {
  std::uint64_t run = 0;
  std::int64_t round = 0;
  double t = 0.0;
  // --- constraint satisfaction ---------------------------------------
  std::uint64_t online = 0;       ///< online consumers
  std::uint64_t orphans = 0;      ///< online parentless consumers
  std::uint64_t satisfied = 0;    ///< online, connected, DelayAt <= l
  std::uint64_t unsatisfied = 0;  ///< online - satisfied
  bool converged = false;         ///< unsatisfied == 0 this round
  // --- DelayAt distribution over online consumers --------------------
  std::int64_t max_depth = 0;
  double mean_depth = 0.0;
  std::int64_t depth_p50 = 0;
  std::int64_t depth_p90 = 0;
  std::int64_t depth_p99 = 0;
  // --- latency slack l_i - DelayAt(i) over online consumers ----------
  std::int64_t min_slack = 0;
  double mean_slack = 0.0;
  /// Slack at (one of) the deepest online consumers — the tightest
  /// point of the gradient the paper's layering aims to protect.
  std::int64_t deepest_slack = 0;
  std::uint64_t violated = 0;  ///< consumers with negative slack
  // --- fanout utilization --------------------------------------------
  std::uint64_t edges = 0;      ///< attached parent-child edges
  std::uint64_t capacity = 0;   ///< sum of fanout over online nodes
  std::uint64_t saturated = 0;  ///< online nodes with zero free fanout
  double utilization = 0.0;     ///< edges / capacity
  // --- churn / reconfiguration since the previous sample -------------
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::uint64_t offlines = 0;
  std::uint64_t onlines = 0;
  // --- per-subsystem counter deltas since the previous sample --------
  /// Keyed by the metric-name prefix before the first '.' ("net",
  /// "oracle", "feed", "engine", ...); ordered, so JSON output is
  /// deterministic.
  std::map<std::string, std::uint64_t> messages;
};

/// Final verdict of one construction run.
struct HealthRunResult {
  std::uint64_t run = 0;
  std::uint64_t nodes = 0;  ///< node count including the source
  std::int64_t rounds = 0;  ///< last sampled round
  bool converged = false;
  /// First round of the stable streak, or -1 when the run never locked
  /// convergence (the paper's "did not converge").
  std::int64_t convergence_round = -1;
  HealthSample final;  ///< the run's last sample
};

/// The observatory. Engines register each construction run via
/// begin_run() — only when a recorder is active, so the default path
/// never takes the detour — and hand it one sample per round via
/// note_round().
///
/// Internally locked, PerfRecorder-style: the active recorder is
/// installed through an acquire/release atomic, and all run and stream
/// state sits behind the recorder's mutex (lock order is always
/// recorder -> metrics registry).
class LAGOVER_THREAD_SAFE OverlayHealthRecorder {
 public:
  struct Config {
    /// Consecutive converged samples required to latch the convergence
    /// round. 1 reproduces run_until_converged()'s "first all-satisfied
    /// round"; larger values reject transient dips under churn.
    int stability_rounds = 1;
    /// Emitted-sample budget per run before the stream stride doubles.
    std::size_t stream_budget = 2048;
  };

  OverlayHealthRecorder();
  explicit OverlayHealthRecorder(Config config);
  ~OverlayHealthRecorder();

  OverlayHealthRecorder(const OverlayHealthRecorder&) = delete;
  OverlayHealthRecorder& operator=(const OverlayHealthRecorder&) = delete;

  /// The recorder engines register runs against (nullptr = inactive:
  /// begin_run is never reached and runs stay byte-identical).
  /// Acquire/release, mirroring PerfRecorder::active().
  static OverlayHealthRecorder* active() noexcept;
  static void set_active(OverlayHealthRecorder* recorder) noexcept;

  /// Opens the "lagover.health.v1" JSONL stream; false on I/O failure.
  bool set_stream(const std::string& path) LAGOVER_EXCLUDES(mutex_);

  /// Mirrors every sample line into `fn`, stride or not (the
  /// flight-recorder wiring; nullptr disables). Runs under the recorder
  /// lock: `fn` must not call back into this recorder.
  void set_sample_mirror(std::function<void(const Json&)> fn)
      LAGOVER_EXCLUDES(mutex_);

  // --- run lifecycle (engines) ---------------------------------------
  /// Registers a construction run over `nodes` nodes (the source and
  /// its consumers). Ends any previously open run first (benches run
  /// trials serially) and returns the run id engines pass to
  /// note_round()/end_run(). Never returns 0.
  std::uint64_t begin_run(std::size_t nodes) LAGOVER_EXCLUDES(mutex_);

  /// Records the end-of-round `sample` (its structural fields and `t`
  /// filled in by the engine): stamps the run, the round and the
  /// message deltas, feeds the convergence tracker, mirror and stream.
  /// Ignored unless `run` is the currently open run, so an engine whose
  /// run was superseded cannot corrupt the successor's stream.
  void note_round(std::uint64_t run, HealthSample sample)
      LAGOVER_EXCLUDES(mutex_);

  /// Closes a run: emits the run_end summary line and archives the
  /// HealthRunResult. Ignored unless `run` is currently open.
  void end_run(std::uint64_t run) LAGOVER_EXCLUDES(mutex_);

  /// Closes whichever run is still open (end-of-bench flush).
  void finalize() LAGOVER_EXCLUDES(mutex_);

  // --- introspection --------------------------------------------------
  std::uint64_t current_run() const LAGOVER_EXCLUDES(mutex_);
  std::size_t completed_run_count() const LAGOVER_EXCLUDES(mutex_);
  /// Completed runs in completion order (benches slice per cell).
  std::vector<HealthRunResult> completed_runs() const
      LAGOVER_EXCLUDES(mutex_);
  std::uint64_t stream_lines() const LAGOVER_EXCLUDES(mutex_);
  std::uint64_t samples_total() const LAGOVER_EXCLUDES(mutex_);

  /// The embedded bench-JSON health block (schema "lagover.health.v1"):
  /// run/convergence statistics over every completed run plus the last
  /// run's final sample. Finalizes the open run first.
  Json to_json() LAGOVER_EXCLUDES(mutex_);

  /// Serializes one sample as a "kind":"sample" stream line (shared by
  /// the streamer, the mirror, and tests).
  static Json sample_to_json(const HealthSample& sample);

 private:
  void emit_locked(const Json& line) LAGOVER_REQUIRES(mutex_);
  void end_run_locked() LAGOVER_REQUIRES(mutex_);
  /// Current per-subsystem counter totals from the metrics registry.
  static std::map<std::string, std::uint64_t> subsystem_totals();

  const Config config_;

  mutable Mutex mutex_;
  // --- run state ------------------------------------------------------
  std::uint64_t next_run_ LAGOVER_GUARDED_BY(mutex_) = 1;
  std::uint64_t run_ LAGOVER_GUARDED_BY(mutex_) = 0;  ///< 0 = no open run
  std::uint64_t nodes_ LAGOVER_GUARDED_BY(mutex_) = 0;
  // --- per-subsystem message baseline ---------------------------------
  std::map<std::string, std::uint64_t> message_base_
      LAGOVER_GUARDED_BY(mutex_);
  // --- convergence tracker --------------------------------------------
  std::int64_t streak_start_ LAGOVER_GUARDED_BY(mutex_) = -1;
  int streak_len_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::int64_t convergence_round_ LAGOVER_GUARDED_BY(mutex_) = -1;
  // --- sampling / streaming state -------------------------------------
  bool have_sample_ LAGOVER_GUARDED_BY(mutex_) = false;
  HealthSample last_sample_ LAGOVER_GUARDED_BY(mutex_);
  std::uint64_t run_samples_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::uint64_t run_emitted_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::uint64_t stride_ LAGOVER_GUARDED_BY(mutex_) = 1;
  std::uint64_t samples_total_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::uint64_t stream_lines_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<std::ostream> stream_ LAGOVER_GUARDED_BY(mutex_);
  std::function<void(const Json&)> sample_mirror_ LAGOVER_GUARDED_BY(mutex_);
  std::vector<HealthRunResult> completed_ LAGOVER_GUARDED_BY(mutex_);
};

}  // namespace lagover::telemetry
