// Shared helpers for the bench binaries: standard flag handling, the
// paper's default experiment parameters, and table printing.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/health.hpp"
#include "telemetry/perf.hpp"
#include "workload/constraints.hpp"

namespace lagover::bench {

/// The flags BenchOptions::parse reads (documented on BenchOptions).
inline constexpr FlagSpec kBenchFlags[] = {
    {"peers", "N"},
    {"trials", "N"},
    {"max-rounds", "N"},
    {"seed", "N"},
    {"csv", "PREFIX"},
    {"json", "PREFIX"},
    {"bench-json", "PATH"},
    {"telemetry", ""},
    {"trace-out", "PATH"},
    {"events-out", "PATH"},
    {"spans-out", "PATH"},
    {"postmortem-out", "PATH"},
    {"perf", ""},
    {"health", ""},
    {"health-out", "PATH"},
    {"stability-rounds", "N"},
    {"log-level", "L"},
};

/// Flags every bench accepts:
///   --peers N         population size (default 120, the paper's)
///   --trials N        repetitions per cell (default 5, paper Section 5.1)
///   --max-rounds N    convergence budget before reporting DNC
///   --seed N          base seed
///   --csv PREFIX      also write each table as PREFIX<table>.csv
///   --json PREFIX     also write each table as PREFIX<table>.json
///   --bench-json PATH machine-readable run summary (see BenchJson);
///                     default <bench>.bench.json, "-" disables
///   --telemetry       enable the telemetry substrate (metrics,
///                     profiler, event stream); a "metrics" block is
///                     embedded in the bench JSON
///   --trace-out PATH  write a Chrome trace_event file (Perfetto /
///                     chrome://tracing loadable); implies --telemetry
///   --events-out PATH stream events + log lines as JSONL; implies
///                     --telemetry
///   --spans-out PATH  stream per-item hop spans ("lagover.spans.v1")
///                     as JSONL; implies --telemetry
///   --postmortem-out PATH  arm a flight recorder that dumps a
///                     "lagover.postmortem.v1" bundle on the first
///                     invariant violation (or on explicit request);
///                     implies --telemetry
///   --perf            record a "perf" section ("lagover.perf.v1") in
///                     the bench JSON: wall time, rounds/sec, peak
///                     RSS, allocation counts, message complexity,
///                     per-phase splits; implies --telemetry
///   --health          activate the overlay health observatory
///                     (telemetry/health.hpp): per-round tree-quality
///                     samples + convergence tracking, embedded as a
///                     "health" block in the bench JSON; implies
///                     --telemetry
///   --health-out PATH stream per-round health samples as
///                     "lagover.health.v1" JSONL; implies --health
///   --stability-rounds N  consecutive converged samples required to
///                     latch a run's convergence round (default 1)
///   --log-level L     logger threshold: trace|debug|info|warn|error|off
///
/// A malformed number or a --name the bench does not know prints the
/// usage line and exits with status 2.
struct BenchOptions {
  std::size_t peers = 120;
  int trials = 5;
  Round max_rounds = 3000;
  std::uint64_t seed = 1;
  std::string csv_prefix;
  std::string json_prefix;
  std::string bench_json;  ///< "" = default path, "-" = disabled
  bool telemetry = false;
  std::string trace_out;       ///< "" = no Chrome trace
  std::string events_out;      ///< "" = no JSONL stream
  std::string spans_out;       ///< "" = no span JSONL stream
  std::string postmortem_out;  ///< "" = no flight recorder
  bool perf = false;           ///< record the "lagover.perf.v1" section
  bool health = false;         ///< activate the overlay health observatory
  std::string health_out;      ///< "" = no health JSONL stream
  int stability_rounds = 1;    ///< convergence-tracker stability window
  /// The run's argv flags joined by spaces — embedded in post-mortem
  /// bundles so a dump carries its own repro command line.
  std::string argv_flags;

  /// Parses the shared flags. `extra` names the bench's own flags,
  /// which it reads itself; any other --name is a usage error.
  static BenchOptions parse(int argc, char** argv,
                            std::initializer_list<FlagSpec> extra = {}) {
    std::vector<FlagSpec> specs(std::begin(kBenchFlags),
                                std::end(kBenchFlags));
    specs.insert(specs.end(), extra.begin(), extra.end());
    return read_flags_or_exit(argc, argv, specs, [&](const Flags& flags) {
      return from_flags(flags, argc, argv);
    });
  }

 private:
  static BenchOptions from_flags(const Flags& flags, int argc, char** argv) {
    BenchOptions options;
    options.peers =
        static_cast<std::size_t>(flags.get_int("peers", 120));
    options.trials = static_cast<int>(flags.get_int("trials", 5));
    options.max_rounds =
        static_cast<Round>(flags.get_int("max-rounds", 3000));
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.csv_prefix = flags.get_string("csv", "");
    options.json_prefix = flags.get_string("json", "");
    options.bench_json = flags.get_string("bench-json", "");
    options.trace_out = flags.get_string("trace-out", "");
    options.events_out = flags.get_string("events-out", "");
    options.spans_out = flags.get_string("spans-out", "");
    options.postmortem_out = flags.get_string("postmortem-out", "");
    options.perf = flags.get_bool("perf", false);
    options.health_out = flags.get_string("health-out", "");
    // --health-out implies --health: a stream needs the recorder.
    options.health =
        flags.get_bool("health", false) || !options.health_out.empty();
    options.stability_rounds =
        static_cast<int>(flags.get_int("stability-rounds", 1));
    // --perf implies --telemetry: rounds and message complexity are
    // read as deltas of the metrics-registry counters. --health does
    // too, for the per-subsystem message deltas in its samples.
    options.telemetry = flags.get_bool("telemetry", false) ||
                        options.perf || options.health ||
                        !options.trace_out.empty() ||
                        !options.events_out.empty() ||
                        !options.spans_out.empty() ||
                        !options.postmortem_out.empty();
    if (flags.has("log-level"))
      Logger::instance().set_level(
          parse_log_level(flags.get_string("log-level", "warn")));
    for (int i = 1; i < argc; ++i) {
      if (i > 1) options.argv_flags += ' ';
      options.argv_flags += argv[i];
    }
    telemetry::set_enabled(options.telemetry);
    return options;
  }
};

/// Machine-readable bench summary, schema "lagover.bench.v1":
///
///   {
///     "schema":  "lagover.bench.v1",
///     "bench":   "<binary name>",
///     "options": {"peers": N, "trials": N, "max_rounds": N, "seed": N},
///     "summary": {"<metric>": <number>, ...},   // headline scalars
///     "tables":  {"<name>": {"header": [...],   // the printed tables,
///                            "rows": [[...]]}}  // cells as strings
///   }
///
/// "summary" holds the bench's acceptance-relevant scalars (e.g.
/// bench_failover's mean orphan time per detection policy) so CI and
/// scripts can assert on them without parsing console tables.
///
/// With --telemetry a "metrics" block (schema "lagover.metrics.v1") is
/// embedded alongside:
///
///   "metrics": {
///     "schema":     "lagover.metrics.v1",
///     "counters":   {"<name>": <integer>, ...},
///     "gauges":     {"<name>": <number>, ...},
///     "histograms": {"<name>": {"count": N, "sum": X, "min": X,
///                               "max": X, "mean": X, "p50": X,
///                               "p90": X, "p99": X, "underflow": N,
///                               "overflow": N,
///                               "buckets": [{"lo": X, "hi": X,
///                                            "count": N}, ...]}},
///     "profile":    {"<scope>": {"calls": N, "total_ns": N,
///                                "mean_ns": X, "max_ns": N}},
///     "timeseries": {"<metric>": [[t, value], ...]}   // optional
///   }
class BenchJson {
 public:
  BenchJson(std::string bench, const BenchOptions& options)
      : bench_(std::move(bench)) {
    root_ = Json::object();
    root_.set("schema", Json::string("lagover.bench.v1"));
    root_.set("bench", Json::string(bench_));
    Json opts = Json::object();
    opts.set("peers", Json::integer(static_cast<std::int64_t>(options.peers)));
    opts.set("trials", Json::integer(options.trials));
    opts.set("max_rounds",
             Json::integer(static_cast<std::int64_t>(options.max_rounds)));
    opts.set("seed", Json::integer(static_cast<std::int64_t>(options.seed)));
    root_.set("options", std::move(opts));
    summary_ = Json::object();
    tables_ = Json::object();
  }

  void add_scalar(const std::string& key, double value) {
    summary_.set(key, Json::number(value));
  }
  void add_count(const std::string& key, std::uint64_t value) {
    summary_.set(key, Json::integer(static_cast<std::int64_t>(value)));
  }

  void add_table(const std::string& name, const Table& table) {
    Json t = Json::object();
    Json header = Json::array();
    for (const std::string& cell : table.header())
      header.push_back(Json::string(cell));
    t.set("header", std::move(header));
    Json rows = Json::array();
    for (const auto& row : table.rows()) {
      Json r = Json::array();
      for (const std::string& cell : row) r.push_back(Json::string(cell));
      rows.push_back(std::move(r));
    }
    t.set("rows", std::move(rows));
    tables_.set(name, std::move(t));
  }

  /// Embeds the "lagover.metrics.v1" block (see the class comment).
  void set_metrics(Json metrics) {
    has_metrics_ = true;
    metrics_ = std::move(metrics);
  }

  /// Embeds the "lagover.perf.v1" block (recorded with --perf): wall
  /// time, peak RSS, allocation counts, per-phase rounds/sec, and
  /// per-round message complexity. See docs/PERFORMANCE.md.
  void set_perf(Json perf) {
    has_perf_ = true;
    perf_ = std::move(perf);
  }

  /// Embeds the "lagover.health.v1" block (recorded with --health):
  /// per-run convergence rounds and the final tree-quality sample. See
  /// docs/OBSERVABILITY.md, "Overlay health timeline".
  void set_health(Json health) {
    has_health_ = true;
    health_ = std::move(health);
  }

  /// Writes to the path implied by the options ("-" disables; empty
  /// selects "<bench>.bench.json"). Returns false on I/O failure.
  bool write(const BenchOptions& options) {
    if (options.bench_json == "-") return true;
    const std::string path = options.bench_json.empty()
                                 ? bench_ + ".bench.json"
                                 : options.bench_json;
    root_.set("summary", summary_);
    root_.set("tables", tables_);
    if (has_metrics_) root_.set("metrics", metrics_);
    if (has_perf_) root_.set("perf", perf_);
    if (has_health_) root_.set("health", health_);
    std::ofstream out(path);
    if (!out) return false;
    out << root_.dump_pretty() << '\n';
    if (out) std::cout << "\nwrote " << path << '\n';
    return static_cast<bool>(out);
  }

 private:
  std::string bench_;
  Json root_;
  Json summary_;
  Json tables_;
  Json metrics_;
  Json perf_;
  Json health_;
  bool has_metrics_ = false;
  bool has_perf_ = false;
  bool has_health_ = false;
};

/// RAII bundle of the telemetry exporters a bench needs: builds the
/// writers selected by the options, exposes sample(t) for per-round
/// snapshots, and on finish() writes the trace/JSONL outputs and embeds
/// the "lagover.metrics.v1" block into the bench JSON. Inert (all null)
/// when telemetry is off, so benches can call it unconditionally.
class TelemetryExport {
 public:
  explicit TelemetryExport(const BenchOptions& options) : options_(options) {
    if (!options.telemetry) return;
    telemetry::MetricsRegistry::instance().reset();
    telemetry::Profiler::instance().reset();
    sampler_ = std::make_unique<telemetry::TimeseriesSampler>();
    if (!options.trace_out.empty())
      trace_ = std::make_unique<telemetry::ChromeTraceWriter>();
    if (!options.events_out.empty())
      events_ =
          std::make_unique<telemetry::JsonlEventWriter>(options.events_out);
    if (!options.spans_out.empty())
      spans_ = std::make_unique<telemetry::JsonlEventWriter>(
          options.spans_out, /*spans_only=*/true);
    if (!options.postmortem_out.empty()) {
      recorder_ = std::make_unique<telemetry::FlightRecorder>();
      recorder_->set_repro(options.seed, options.argv_flags);
      recorder_->set_dump_on_violation(options.postmortem_out);
    }
    if (options.perf) {
      // Created after the registry reset above so the recorder's
      // baseline round/message snapshot starts from zero.
      telemetry::set_alloc_tracking(true);
      perf_ = std::make_unique<telemetry::PerfRecorder>();
      telemetry::PerfRecorder::set_active(perf_.get());
    }
    if (options.health) {
      telemetry::OverlayHealthRecorder::Config config;
      config.stability_rounds = std::max(1, options.stability_rounds);
      health_ = std::make_unique<telemetry::OverlayHealthRecorder>(config);
      if (!options.health_out.empty() &&
          !health_->set_stream(options.health_out))
        std::cerr << "failed to open " << options.health_out << '\n';
      if (recorder_ != nullptr)
        health_->set_sample_mirror(
            [recorder = recorder_.get()](const Json& sample) {
              recorder->note_health(sample);
            });
      telemetry::OverlayHealthRecorder::set_active(health_.get());
    }
  }

  ~TelemetryExport() {
    if (perf_ != nullptr) telemetry::set_alloc_tracking(false);
  }

  TelemetryExport(const TelemetryExport&) = delete;
  TelemetryExport& operator=(const TelemetryExport&) = delete;

  /// Snapshot every counter/gauge at time t (per round / sim tick).
  void sample(double t) {
    if (sampler_) sampler_->sample(t);
  }

  /// The armed flight recorder, or nullptr without --postmortem-out.
  /// Benches feed it the fault-plan digest, overlay snapshots, and
  /// violations (via attach_flight_recorder on an engine's audit bus).
  telemetry::FlightRecorder* recorder() noexcept { return recorder_.get(); }

  /// The perf recorder, or nullptr without --perf. (Benches normally
  /// talk to it through telemetry::PerfPhase scopes instead.)
  telemetry::PerfRecorder* perf() noexcept { return perf_.get(); }

  /// The health observatory, or nullptr without --health. Benches read
  /// completed_runs() to embed per-cell convergence scalars.
  telemetry::OverlayHealthRecorder* health() noexcept {
    return health_.get();
  }

  /// Writes the Chrome trace (when requested) and embeds the metrics
  /// summary. Call once, after the run and before json.write().
  void finish(BenchJson& json) {
    if (!options_.telemetry) return;
    if (perf_ != nullptr) {
      telemetry::set_alloc_tracking(false);
      perf_->finish();
      json.set_perf(perf_->to_json());
    }
    if (health_ != nullptr) {
      json.set_health(health_->to_json());
      if (!options_.health_out.empty())
        std::cout << "wrote " << options_.health_out << " ("
                  << health_->stream_lines() << " lines)\n";
    }
    json.set_metrics(
        telemetry::metrics_summary_json(sampler_.get()));
    if (trace_ != nullptr) {
      if (trace_->write(options_.trace_out))
        std::cout << "wrote " << options_.trace_out << " ("
                  << trace_->event_count() << " trace events)\n";
      else
        std::cerr << "failed to write " << options_.trace_out << '\n';
    }
    if (events_ != nullptr)
      std::cout << "wrote " << options_.events_out << " ("
                << events_->lines() << " lines)\n";
    if (spans_ != nullptr)
      std::cout << "wrote " << options_.spans_out << " ("
                << spans_->lines() << " lines)\n";
    if (recorder_ != nullptr && recorder_->violation_seen()) {
      if (recorder_->dumped())
        std::cout << "wrote " << options_.postmortem_out << " (post-mortem, "
                  << recorder_->violations_total() << " violation(s))\n";
      else
        std::cerr << "failed to write " << options_.postmortem_out << '\n';
    }
  }

 private:
  BenchOptions options_;
  std::unique_ptr<telemetry::TimeseriesSampler> sampler_;
  std::unique_ptr<telemetry::ChromeTraceWriter> trace_;
  std::unique_ptr<telemetry::JsonlEventWriter> events_;
  std::unique_ptr<telemetry::JsonlEventWriter> spans_;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<telemetry::PerfRecorder> perf_;
  std::unique_ptr<telemetry::OverlayHealthRecorder> health_;
};

inline void print_table(const std::string& title, const Table& table,
                        const BenchOptions& options,
                        const std::string& csv_name) {
  std::cout << "\n## " << title << "\n\n" << table.to_string();
  if (!options.csv_prefix.empty())
    table.write_csv(options.csv_prefix + csv_name + ".csv");
  if (!options.json_prefix.empty())
    table.write_json(options.json_prefix + csv_name + ".json");
}

/// Population factory for a workload kind under the bench options.
inline std::function<Population(std::uint64_t)> population_factory(
    WorkloadKind kind, std::size_t peers) {
  return [kind, peers](std::uint64_t seed) {
    WorkloadParams params;
    params.peers = peers;
    params.seed = seed;
    return generate_workload(kind, params);
  };
}

}  // namespace lagover::bench
