// Population-scale benchmark of the LagOver simulator: one process, one
// thread, four workloads, driven only through the libraries' public
// entry points (generate_workload, Engine / AsyncEngine,
// feed::run_lossy_dissemination and Overlay queries).
//
//   lagover_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH]
//
// A run measures benchmark instances back to back until S seconds have
// passed. The seed fixes a small set of inputs per workload; instance k
// runs input k mod their number, and an untraced run completes each
// input at least once. Each metric that counts work is taken from each
// input's first instance, so it is a function of the seed alone, and the
// time budget adds only timing samples. Every instance checks its own
// output; the last stdout line is the result object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// pairs every untraced instance with a traced copy of the same inputs,
// reports the per-layer metrics, checks that tracing left the run
// unchanged, checks on instance 0 that the chunked drivers the benchmark
// times reach the same final state as the libraries' one-call drivers,
// and writes every traced instance's spans to PATH as CSV.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "core/oracle.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "feed/reliability.hpp"
#include "perfbench/tracer.hpp"
#include "telemetry/perf.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace perfbench {
namespace {

using lagover::NodeId;
using lagover::Overlay;

constexpr lagover::Round kMaxRounds = 1000;

// A set-up shorter than this is repeated (up to kMaxSetupReps times) and
// its median reported, so a set-up of a few milliseconds is not one
// noisy sample.
constexpr double kSetupBudgetS = 0.5;
constexpr std::size_t kMaxSetupReps = 201;

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (rank - static_cast<double>(low)) * (values[high] - values[low]);
}

// --- per-instance results -------------------------------------------------

/// What two runs of the same inputs must agree on.
struct Fingerprint {
  double converge_rounds = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t sim_events = 0;
  double satisfied_frac = 0;
  double delivery_ratio = 0;
  std::uint64_t overlay_hash = 0;
};

struct InstanceResult {
  std::size_t input = 0;  ///< which of the run's inputs this instance ran
  double setup_s = 0;
  double run_s = 0;   ///< sum of chunk_ms
  double rounds = 0;  ///< simulated rounds or time units in the timed phase
  /// Time of each chunk of the timed phase, in order: one run_round, one
  /// run_for(1.0) or the one feed call.
  std::vector<double> chunk_ms;
  double allocs = 0;
  double converge_rounds = 0;
  double satisfied_frac = 0;
  double delivery_ratio = 1;
  std::vector<std::string> failures;
  Fingerprint fingerprint;
  std::map<std::string, double> layer;
};

struct InstanceOptions {
  std::uint64_t seed = 1;
  SpanRecorder* tracer = nullptr;
  /// Drive with run_until_converged / run_for(horizon) instead of the
  /// per-round / per-unit chunks the timed phase uses.
  bool reference_driver = false;
};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Records one chunk of the timed phase that began at `start_ns`.
void end_chunk(InstanceResult& result, std::uint64_t start_ns) {
  const double ms = static_cast<double>(now_ns() - start_ns) * 1e-6;
  result.chunk_ms.push_back(ms);
  result.run_s += ms * 1e-3;
}

std::uint64_t allocs_now() { return lagover::telemetry::alloc_stats().allocs; }

void check(InstanceResult& result, bool ok, const std::string& what) {
  if (!ok) result.failures.push_back(what);
}

/// Runs a workload's set-up `make` and stores its time in
/// `result.setup_s`. Untraced instances repeat a short set-up (see
/// kSetupBudgetS) and keep the median; traced instances set up once, so
/// their setup-phase spans describe exactly one set-up. Returns the last
/// set-up's product.
template <typename Make>
auto timed_setup(InstanceResult& result, const InstanceOptions& options,
                 Make make) {
  std::vector<double> samples;
  const std::uint64_t budget_start = now_ns();
  while (true) {
    const std::uint64_t start = now_ns();
    auto built = make();
    samples.push_back(seconds_since(start));
    if (options.tracer != nullptr || samples.size() >= kMaxSetupReps ||
        seconds_since(budget_start) >= kSetupBudgetS) {
      result.setup_s = median(samples);
      return built;
    }
  }
}

/// FNV-1a over every node's parent and online flag.
std::uint64_t overlay_hash(const Overlay& overlay) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  for (NodeId id = 0; id < overlay.node_count(); ++id) {
    mix(overlay.parent(id));
    mix(overlay.online(id) ? 1 : 0);
  }
  return hash;
}

/// Output checks shared by every workload: the constraint report is
/// clean (offline nodes excepted when `allow_offline`) and the paper's
/// structural invariants hold.
void check_overlay(InstanceResult& result, const Overlay& overlay,
                   const lagover::health::EpochBook& epochs,
                   bool allow_offline) {
  const lagover::ValidationReport report = lagover::validate_overlay(overlay);
  std::size_t bad = 0;
  for (const lagover::NodeDiagnosis& diagnosis : report.issues)
    if (!allow_offline || diagnosis.issue != lagover::NodeIssue::kOffline)
      ++bad;
  check(result, bad == 0,
        "validate_overlay: " + std::to_string(bad) + " unsatisfied nodes");
  const lagover::InvariantReport invariants = lagover::audit_invariants(
      overlay, lagover::AlgorithmKind::kHybrid, &epochs);
  check(result, invariants.ok(),
        "audit_invariants: " + std::to_string(invariants.violations.size()) +
            " violations");
}

/// Per-call cost of the Overlay queries on a final overlay.
void probe_overlay(InstanceResult& result, const Overlay& overlay) {
  std::vector<double> scan_us;
  bool sink = true;
  const std::uint64_t scan_start = now_ns();
  while (scan_us.size() < 200 &&
         (scan_us.size() < 5 || seconds_since(scan_start) < 0.05)) {
    const std::uint64_t t = now_ns();
    sink = overlay.all_satisfied() && sink;
    scan_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
  }
  std::vector<double> delay_ns;
  long long depth_sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t = now_ns();
    for (NodeId id = 0; id < overlay.node_count(); ++id)
      depth_sum += overlay.delay_at(id);
    delay_ns.push_back(static_cast<double>(now_ns() - t) /
                       static_cast<double>(overlay.node_count()));
  }
  int max_depth = 0;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (overlay.online(id) && overlay.connected(id))
      max_depth = std::max(max_depth, overlay.delay_at(id));
  result.layer["overlay.all_satisfied_us"] = median(scan_us);
  result.layer["overlay.delay_at_ns"] = median(delay_ns);
  result.layer["overlay.max_depth"] = max_depth;
  // Keeps the probed calls observable to the optimizer.
  if (!sink && depth_sum < 0) std::fputs("", stderr);
}

void counter_metrics(InstanceResult& result, const Overlay& overlay,
                     const lagover::OverlayCounters& before) {
  const lagover::OverlayCounters& after = overlay.counters();
  result.layer["overlay.attaches"] =
      static_cast<double>(after.attaches - before.attaches);
  result.layer["overlay.detaches"] =
      static_cast<double>(after.detaches - before.detaches);
}

/// Oracle decorator installed on traced runs; null when untraced.
template <typename EngineT>
TracedOracle* install_traced_oracle(EngineT& engine, SpanRecorder* tracer,
                                    lagover::OracleKind kind) {
  if (tracer == nullptr) return nullptr;
  auto traced =
      std::make_unique<TracedOracle>(lagover::make_oracle(kind), *tracer);
  TracedOracle* view = traced.get();
  engine.set_oracle(std::move(traced));
  return view;
}

/// Span metrics every traced instance reports: set-up's workload
/// generation and the Oracle's calls in `phase` (`before` holds the
/// decorator's counters when it opened).
void traced_metrics(InstanceResult& result, const SpanRecorder& tracer,
                    const TracedOracle& oracle, Phase phase,
                    const lagover::OracleStats& before) {
  const LayerTotals& generate = tracer.totals(Phase::kSetup, Layer::kWorkload);
  result.layer["workload.generate_s"] = ns_to_s(generate.total_ns);
  const LayerTotals& totals = tracer.totals(phase, Layer::kOracle);
  const double queries =
      static_cast<double>(oracle.stats().queries - before.queries);
  const double empty =
      static_cast<double>(oracle.stats().empty_results - before.empty_results);
  result.layer["oracle.calls"] = static_cast<double>(totals.calls);
  result.layer["oracle.self_s"] = ns_to_s(totals.self_ns);
  result.layer["oracle.us_per_call"] =
      totals.calls == 0 ? 0.0
                        : static_cast<double>(totals.total_ns) * 1e-3 /
                              static_cast<double>(totals.calls);
  result.layer["oracle.useful_frac"] =
      queries == 0 ? 0.0 : (queries - empty) / queries;
}

lagover::Population generate(lagover::WorkloadKind kind, std::size_t peers,
                             std::uint64_t seed, SpanRecorder* tracer) {
  const ScopedSpan span(tracer, Layer::kWorkload);
  lagover::WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return lagover::generate_workload(kind, params);
}

lagover::EngineConfig sync_config(std::uint64_t seed) {
  lagover::EngineConfig config;
  config.algorithm = lagover::AlgorithmKind::kHybrid;
  config.oracle = lagover::OracleKind::kRandomDelay;
  config.seed = seed;
  return config;
}

void finish_fingerprint(InstanceResult& result, const Overlay& overlay,
                        std::uint64_t oracle_calls, std::uint64_t sim_events) {
  result.fingerprint.converge_rounds = result.converge_rounds;
  result.fingerprint.oracle_calls = oracle_calls;
  result.fingerprint.sim_events = sim_events;
  result.fingerprint.satisfied_frac = result.satisfied_frac;
  result.fingerprint.delivery_ratio = result.delivery_ratio;
  result.fingerprint.overlay_hash = overlay_hash(overlay);
}

// --- construct-16k ----------------------------------------------------------
// Cold-start construction of a 16,000-consumer Rand population with the
// synchronous engine (hybrid, RandomDelay Oracle) to full satisfaction.

InstanceResult run_construct(const InstanceOptions& options) {
  InstanceResult result;
  SpanRecorder* tracer = options.tracer;
  TracedOracle* traced = nullptr;
  const auto engine_ptr = timed_setup(result, options, [&] {
    auto built = std::make_unique<lagover::Engine>(
        generate(lagover::WorkloadKind::kRand, 16000, options.seed, tracer),
        sync_config(options.seed));
    traced = install_traced_oracle(*built, tracer,
                                   lagover::OracleKind::kRandomDelay);
    built->set_record_history(true);
    return built;
  });
  lagover::Engine& engine = *engine_ptr;

  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);
  const lagover::OverlayCounters counters_before = engine.overlay().counters();
  result.chunk_ms.reserve(kMaxRounds);
  const std::uint64_t allocs_before = allocs_now();
  bool converged = false;
  if (options.reference_driver) {
    const std::uint64_t chunk_start = now_ns();
    converged = engine.run_until_converged(kMaxRounds).has_value();
    end_chunk(result, chunk_start);
  } else {
    converged = engine.overlay().all_satisfied();
    while (!converged && engine.round() < kMaxRounds) {
      const std::uint64_t chunk_start = now_ns();
      {
        const ScopedSpan span(tracer, Layer::kEngine);
        engine.run_round();
      }
      converged = engine.overlay().all_satisfied();
      end_chunk(result, chunk_start);
    }
  }
  result.allocs = static_cast<double>(allocs_now() - allocs_before);
  result.rounds = static_cast<double>(engine.round());
  result.converge_rounds = static_cast<double>(engine.round());
  double satisfied_sum = 0;
  for (const lagover::RoundStats& stats : engine.history())
    satisfied_sum += stats.satisfied_fraction;
  result.satisfied_frac =
      engine.history().empty()
          ? 1.0
          : satisfied_sum / static_cast<double>(engine.history().size());

  check(result, converged, "construct-16k: no convergence within 1000 rounds");
  check(result, engine.overlay().all_satisfied(),
        "construct-16k: all_satisfied() false at the end");
  check_overlay(result, engine.overlay(), engine.epochs(), false);

  counter_metrics(result, engine.overlay(), counters_before);
  if (tracer != nullptr) {
    traced_metrics(result, *tracer, *traced, Phase::kTimed, {});
    result.layer["engine.round_self_s"] =
        ns_to_s(tracer->totals(Phase::kTimed, Layer::kEngine).self_ns);
    probe_overlay(result, engine.overlay());
  }
  finish_fingerprint(result, engine.overlay(), engine.oracle().stats().queries,
                     0);
  return result;
}

// --- churn-4k ----------------------------------------------------------------
// A converged 4,000-consumer Rand overlay (synchronous engine) under
// BernoulliChurn(0.01, 0.2) for 300 rounds.

InstanceResult run_churn(const InstanceOptions& options) {
  constexpr int kChurnRounds = 300;
  InstanceResult result;
  SpanRecorder* tracer = options.tracer;
  TracedOracle* traced = nullptr;
  TracedChurn* traced_churn = nullptr;
  bool setup_converged = false;
  const auto engine_ptr = timed_setup(result, options, [&] {
    auto built = std::make_unique<lagover::Engine>(
        generate(lagover::WorkloadKind::kRand, 4000, options.seed, tracer),
        sync_config(options.seed));
    traced = install_traced_oracle(*built, tracer,
                                   lagover::OracleKind::kRandomDelay);
    setup_converged = built->run_until_converged(kMaxRounds).has_value();
    auto churn = std::make_unique<lagover::BernoulliChurn>(0.01, 0.2);
    if (tracer != nullptr) {
      auto wrapped = std::make_unique<TracedChurn>(std::move(churn), *tracer);
      traced_churn = wrapped.get();
      built->set_churn(std::move(wrapped));
    } else {
      built->set_churn(std::move(churn));
    }
    return built;
  });
  lagover::Engine& engine = *engine_ptr;
  result.converge_rounds = static_cast<double>(engine.round());

  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);
  const lagover::OracleStats oracle_before =
      traced != nullptr ? traced->stats() : lagover::OracleStats{};
  const std::uint64_t queries_before = engine.oracle().stats().queries;
  const lagover::OverlayCounters counters_before = engine.overlay().counters();
  result.chunk_ms.reserve(kChurnRounds);
  const std::uint64_t allocs_before = allocs_now();
  double satisfied_sum = 0;
  for (int round = 0; round < kChurnRounds; ++round) {
    const std::uint64_t chunk_start = now_ns();
    lagover::RoundStats stats;
    {
      const ScopedSpan span(tracer, Layer::kEngine);
      stats = engine.run_round();
    }
    end_chunk(result, chunk_start);
    satisfied_sum += stats.satisfied_fraction;
  }
  result.allocs = static_cast<double>(allocs_now() - allocs_before);
  result.rounds = kChurnRounds;
  result.satisfied_frac = satisfied_sum / kChurnRounds;
  const std::uint64_t timed_queries =
      engine.oracle().stats().queries - queries_before;
  counter_metrics(result, engine.overlay(), counters_before);
  if (tracer != nullptr) {
    traced_metrics(result, *tracer, *traced, Phase::kTimed, oracle_before);
    result.layer["churn.decide_s"] =
        ns_to_s(tracer->totals(Phase::kTimed, Layer::kChurn).total_ns);
    result.layer["churn.leaves"] = static_cast<double>(traced_churn->leaves());
    result.layer["churn.joins"] = static_cast<double>(traced_churn->joins());
    result.layer["engine.round_self_s"] =
        ns_to_s(tracer->totals(Phase::kTimed, Layer::kEngine).self_ns);
  }

  // Output check, outside the timed phase: once churn stops, the
  // overlay heals to a clean state (nodes that left stay offline).
  engine.set_churn(nullptr);
  check(result, setup_converged, "churn-4k: setup did not converge");
  check(result, engine.run_until_converged(kMaxRounds).has_value(),
        "churn-4k: no reconvergence after churn stopped");
  check_overlay(result, engine.overlay(), engine.epochs(), true);
  if (tracer != nullptr) probe_overlay(result, engine.overlay());
  finish_fingerprint(result, engine.overlay(), timed_queries, 0);
  return result;
}

// --- chaos-2k ----------------------------------------------------------------
// The asynchronous engine (hybrid, BiUnCorr, 2,000 consumers) under the
// canonical chaos plan of bench_chaos at drop probability 0.2, over a
// 400-unit horizon, from a cold start.

lagover::fault::FaultPlan chaos_plan() {
  lagover::fault::FaultPlan plan;
  plan.add(lagover::fault::FaultPlan::drop(30.0, 80.0, 0.2))
      .add(lagover::fault::FaultPlan::partition(100.0, 150.0, 0.1))
      .add(lagover::fault::FaultPlan::oracle_outage(140.0, 190.0));
  return plan;
}

InstanceResult run_chaos(const InstanceOptions& options) {
  constexpr int kHorizon = 400;
  InstanceResult result;
  SpanRecorder* tracer = options.tracer;
  TracedOracle* traced = nullptr;
  const auto engine_ptr = timed_setup(result, options, [&] {
    lagover::AsyncConfig config;
    config.algorithm = lagover::AlgorithmKind::kHybrid;
    config.seed = options.seed;
    config.faults = std::make_shared<lagover::fault::FaultInjector>(
        chaos_plan(), options.seed ^ 0xc4a05);
    auto built = std::make_unique<lagover::AsyncEngine>(
        generate(lagover::WorkloadKind::kBiUnCorr, 2000, options.seed, tracer),
        config);
    traced = install_traced_oracle(*built, tracer, config.oracle);
    return built;
  });
  lagover::AsyncEngine& engine = *engine_ptr;

  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);
  const lagover::OverlayCounters counters_before = engine.overlay().counters();
  result.chunk_ms.reserve(kHorizon);
  const std::uint64_t allocs_before = allocs_now();
  double satisfied_sum = 0;
  int first_satisfied = -1;
  // Traced runs time all_satisfied() after every unit and charge that
  // cost to each event of the unit: an estimate of the scan the engine
  // runs after every wake, taken on the overlays the run passes through.
  double scan_est_s = 0;
  bool scans_agree = true;
  if (options.reference_driver) {
    const std::uint64_t chunk_start = now_ns();
    engine.run_for(kHorizon);
    end_chunk(result, chunk_start);
  } else {
    for (int unit = 0; unit < kHorizon; ++unit) {
      const std::uint64_t events_before = engine.simulator().executed_events();
      const std::uint64_t chunk_start = now_ns();
      double satisfied = 0;
      {
        const ScopedSpan span(tracer, Layer::kAsync);
        satisfied = engine.run_for(1.0);
      }
      // The scan estimate below falls outside the chunk, so it is charged
      // to neither run_s nor the async layer.
      end_chunk(result, chunk_start);
      satisfied_sum += satisfied;
      if (first_satisfied < 0 && satisfied == 1.0) first_satisfied = unit + 1;
      if (tracer != nullptr) {
        // The fastest of three back-to-back scans: in the run, scans
        // follow each other with little work between them, so warm.
        double scan_s = 1e9;
        for (int rep = 0; rep < 3; ++rep) {
          const std::uint64_t scan_start = now_ns();
          const bool all = engine.overlay().all_satisfied();
          scan_s = std::min(scan_s, seconds_since(scan_start));
          scans_agree = scans_agree && all == (satisfied == 1.0);
        }
        scan_est_s += scan_s * static_cast<double>(
                                   engine.simulator().executed_events() -
                                   events_before);
      }
    }
  }
  result.allocs = static_cast<double>(allocs_now() - allocs_before);
  result.rounds = kHorizon;
  result.converge_rounds = first_satisfied < 0 ? kHorizon : first_satisfied;
  result.satisfied_frac = satisfied_sum / kHorizon;
  const std::uint64_t events = engine.simulator().executed_events();
  const std::uint64_t dropped = engine.faults()->stats().messages_dropped;

  check(result, engine.overlay().all_satisfied(),
        "chaos-2k: not reconverged by the horizon");
  check(result, dropped > 0, "chaos-2k: the drop window dropped nothing");
  check(result, scans_agree,
        "chaos-2k: all_satisfied() disagrees with run_for's satisfied "
        "fraction");
  check_overlay(result, engine.overlay(), engine.epochs(), false);

  counter_metrics(result, engine.overlay(), counters_before);
  const double per_event =
      1.0 / static_cast<double>(std::max<std::uint64_t>(1, events));
  result.layer["sim.events"] = static_cast<double>(events);
  result.layer["sim.ns_per_event"] = result.run_s * 1e9 * per_event;
  result.layer["sim.allocs_per_event"] = result.allocs * per_event;
  result.layer["fault.messages_dropped"] = static_cast<double>(dropped);
  if (tracer != nullptr) {
    traced_metrics(result, *tracer, *traced, Phase::kTimed, {});
    const double async_self_s =
        ns_to_s(tracer->totals(Phase::kTimed, Layer::kAsync).self_ns);
    result.layer["async.self_s"] = async_self_s;
    probe_overlay(result, engine.overlay());
    // Events x one full scan of the final (fully satisfied) overlay: an
    // upper bound, since not every event is a wake and a scan of an
    // unsatisfied overlay stops at the first unsatisfied node.
    result.layer["async.scan_bound_s"] =
        static_cast<double>(events) *
        result.layer["overlay.all_satisfied_us"] * 1e-6;
    result.layer["async.scan_est_s"] = scan_est_s;
    result.layer["async.scan_share"] =
        async_self_s > 0 ? scan_est_s / async_self_s : 0.0;
  }
  finish_fingerprint(result, engine.overlay(), engine.oracle().stats().queries,
                     events);
  return result;
}

// --- feed-8k -----------------------------------------------------------------
// Setup converges an 8,000-consumer BiUnCorr overlay (synchronous
// engine); the timed phase is lossy dissemination over it: 10% push
// loss, NACK repair, 600 time units.

InstanceResult run_feed(const InstanceOptions& options) {
  constexpr double kDuration = 600.0;
  InstanceResult result;
  SpanRecorder* tracer = options.tracer;
  TracedOracle* traced = nullptr;
  bool setup_converged = false;
  const auto engine_ptr = timed_setup(result, options, [&] {
    auto built = std::make_unique<lagover::Engine>(
        generate(lagover::WorkloadKind::kBiUnCorr, 8000, options.seed, tracer),
        sync_config(options.seed));
    traced = install_traced_oracle(*built, tracer,
                                   lagover::OracleKind::kRandomDelay);
    setup_converged = built->run_until_converged(kMaxRounds).has_value();
    return built;
  });
  const lagover::Engine& engine = *engine_ptr;
  result.converge_rounds = static_cast<double>(engine.round());

  lagover::feed::LossyConfig lossy;
  lossy.push_loss = 0.1;
  lossy.repair = lagover::feed::RepairMode::kNack;
  lossy.base.seed = options.seed;
  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);
  const std::uint64_t allocs_before = allocs_now();
  const std::uint64_t chunk_start = now_ns();
  lagover::feed::LossyReport report;
  {
    const ScopedSpan span(tracer, Layer::kFeed);
    report = lagover::feed::run_lossy_dissemination(engine.overlay(), lossy,
                                                    kDuration);
  }
  end_chunk(result, chunk_start);
  result.allocs = static_cast<double>(allocs_now() - allocs_before);
  result.rounds = kDuration;
  result.satisfied_frac = engine.overlay().satisfied_fraction();
  result.delivery_ratio = report.delivery_ratio;

  check(result, setup_converged, "feed-8k: setup did not converge");
  check(result, report.delivery_ratio == 1.0,
        "feed-8k: delivery_ratio " + std::to_string(report.delivery_ratio));
  check(result,
        report.applications ==
            report.push_deliveries + report.recovered_deliveries,
        "feed-8k: applications != push + recovered deliveries");
  check_overlay(result, engine.overlay(), engine.epochs(), false);

  const double pushes =
      static_cast<double>(report.push_deliveries + report.lost_pushes);
  result.layer["feed.pushes"] = pushes;
  result.layer["feed.ns_per_push"] = result.run_s * 1e9 / pushes;
  result.layer["feed.allocs_per_push"] = result.allocs / pushes;
  result.layer["feed.recovery_pulls"] =
      static_cast<double>(report.recovery_pulls);
  result.layer["feed.nacked_items"] = static_cast<double>(report.nacked_items);
  result.layer["feed.late_frac"] =
      static_cast<double>(report.late_deliveries) /
      static_cast<double>(std::max<std::uint64_t>(1, report.applications));
  if (tracer != nullptr) {
    // No Oracle call happens in the timed phase; report set-up's.
    traced_metrics(result, *tracer, *traced, Phase::kSetup, {});
    probe_overlay(result, engine.overlay());
  }
  finish_fingerprint(result, engine.overlay(), engine.oracle().stats().queries,
                     0);
  return result;
}

// --- driver ------------------------------------------------------------------

struct Workload {
  const char* name;
  InstanceResult (*run)(const InstanceOptions&);
  /// Has a one-call library driver to check the chunked driver against.
  bool has_reference_driver;
  /// Each chunk is one round or unit of comparable cost, so the tick
  /// percentiles are taken over chunks. Otherwise the one tick sample is
  /// the mean round: construction rounds shrink ~1000x from first to
  /// last, and the feed runs its whole horizon in one call.
  bool ticks_per_chunk;
  /// Inputs per run: instance k runs input k mod `inputs`, and every
  /// untraced run completes at least one instance of each.
  std::size_t inputs;
};

constexpr Workload kWorkloads[] = {
    {"construct-16k", run_construct, true, false, 3},
    {"churn-4k", run_churn, false, true, 2},
    {"chaos-2k", run_chaos, true, true, 1},
    {"feed-8k", run_feed, false, false, 1},
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"rounds_per_s", "1/s"},   {"tick_ms_p50", "ms"},
    {"tick_ms_p90", "ms"},     {"allocs", "count"},
    {"peak_rss_mb", "MiB"},    {"converge_rounds", "rounds"},
    {"satisfied_frac", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"oracle.calls", "count"},
    {"oracle.self_s", "s"},
    {"oracle.us_per_call", "us"},
    {"oracle.useful_frac", "ratio"},
    {"churn.decide_s", "s"},
    {"churn.leaves", "count"},
    {"churn.joins", "count"},
    {"engine.round_self_s", "s"},
    {"overlay.attaches", "count"},
    {"overlay.detaches", "count"},
    {"overlay.all_satisfied_us", "us"},
    {"overlay.delay_at_ns", "ns"},
    {"overlay.max_depth", "count"},
    {"async.self_s", "s"},
    {"async.scan_bound_s", "s"},
    {"async.scan_est_s", "s"},
    {"async.scan_share", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.allocs_per_event", "count"},
    {"fault.messages_dropped", "count"},
    {"feed.pushes", "count"},
    {"feed.ns_per_push", "ns"},
    {"feed.allocs_per_push", "count"},
    {"feed.recovery_pulls", "count"},
    {"feed.nacked_items", "count"},
    {"feed.late_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

template <typename F>
std::vector<double> collect(const std::vector<InstanceResult>& results,
                            F field) {
  std::vector<double> values;
  for (const InstanceResult& result : results) values.push_back(field(result));
  return values;
}

std::string number(double value) {
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (error != std::errc()) return "0";
  return std::string(buffer, end);
}

bool same_run(const Fingerprint& a, const Fingerprint& b) {
  return a.converge_rounds == b.converge_rounds &&
         a.oracle_calls == b.oracle_calls && a.sim_events == b.sim_events &&
         a.satisfied_frac == b.satisfied_frac &&
         a.delivery_ratio == b.delivery_ratio &&
         a.overlay_hash == b.overlay_hash;
}

bool same_final_state(const Fingerprint& a, const Fingerprint& b) {
  return a.oracle_calls == b.oracle_calls && a.sim_events == b.sim_events &&
         a.overlay_hash == b.overlay_hash;
}

/// Input j's seed, derived from the run's seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t j) {
  lagover::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + j);
  return mix.next() >> 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "lagover_perfbench: " << error
            << "\nusage: lagover_perfbench --workload "
               "construct-16k|churn-4k|chaos-2k|feed-8k --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans") {
        args.spans = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// Per chunk of the timed phase, the fastest time any of `runs` took.
/// They all ran the same input (the run checks that they reach the same
/// result), so chunk i does the same work in each, and its fastest time
/// is its cost with the least disturbance from the host.
std::vector<double> fastest_chunks(
    const std::vector<const InstanceResult*>& runs) {
  std::vector<double> fastest = runs.front()->chunk_ms;
  for (const InstanceResult* result : runs)
    for (std::size_t i = 0; i < fastest.size() && i < result->chunk_ms.size();
         ++i)
      fastest[i] = std::min(fastest[i], result->chunk_ms[i]);
  return fastest;
}

/// End-to-end metrics of the untraced instances. Each input's timed
/// phase is timed over its fastest_chunks; run_s is the mean over the
/// inputs, and the tick percentiles pool the inputs' chunks. setup_s is
/// the median of the instances' set-up medians. Each count or ratio is
/// the mean over the inputs of the input's first instance, so it is a
/// function of the seed alone.
std::map<std::string, double> end_to_end(
    const std::vector<InstanceResult>& untraced, const Workload& workload) {
  const auto inputs = static_cast<double>(workload.inputs);
  double run_ms = 0;
  double rounds = 0;
  double allocs = 0;
  double converge_rounds = 0;
  double satisfied_frac = 0;
  double delivery_ratio = 0;
  std::vector<double> ticks;
  for (std::size_t input = 0; input < workload.inputs; ++input) {
    std::vector<const InstanceResult*> runs;
    for (const InstanceResult& result : untraced)
      if (result.input == input) runs.push_back(&result);
    const std::vector<double> chunks = fastest_chunks(runs);
    for (const double ms : chunks) run_ms += ms;
    if (workload.ticks_per_chunk)
      ticks.insert(ticks.end(), chunks.begin(), chunks.end());
    const InstanceResult& first = *runs.front();
    rounds += first.rounds;
    allocs += first.allocs;
    converge_rounds += first.converge_rounds;
    satisfied_frac += first.satisfied_frac;
    delivery_ratio += first.delivery_ratio;
  }
  if (!workload.ticks_per_chunk) ticks = {run_ms / rounds};

  std::map<std::string, double> metrics;
  metrics["setup_s"] = median(
      collect(untraced, [](const InstanceResult& r) { return r.setup_s; }));
  metrics["run_s"] = run_ms * 1e-3 / inputs;
  metrics["rounds_per_s"] = rounds / (run_ms * 1e-3);
  metrics["tick_ms_p50"] = percentile(ticks, 0.5);
  metrics["tick_ms_p90"] = percentile(ticks, 0.9);
  metrics["allocs"] = allocs / inputs;
  metrics["peak_rss_mb"] =
      static_cast<double>(lagover::telemetry::peak_rss_bytes()) /
      (1024.0 * 1024.0);
  metrics["converge_rounds"] = converge_rounds / inputs;
  metrics["satisfied_frac"] = satisfied_frac / inputs;
  std::cout << "# instances " << untraced.size() << " over "
            << workload.inputs << " inputs, tick samples " << ticks.size()
            << "\n";
  std::cout << "# delivery_ratio = " << number(delivery_ratio / inputs)
            << " ratio\n";
  return metrics;
}

/// Per-layer metrics: medians over the traced instances.
std::map<std::string, double> per_layer(
    const std::vector<InstanceResult>& traced,
    const std::vector<double>& overhead) {
  std::map<std::string, double> metrics;
  for (const Metric& metric : kPerLayer) {
    const std::string name = metric.name;
    metrics[name] = median(collect(traced, [&name](const InstanceResult& r) {
      const auto it = r.layer.find(name);
      return it == r.layer.end() ? 0.0 : it->second;
    }));
  }
  metrics["trace.overhead_frac"] = median(overhead);
  std::cout << "# traced pairs " << traced.size() << "\n";
  return metrics;
}

bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<SpanRecorder>>& recorders) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs(SpanRecorder::kCsvHeader, out);
  std::size_t spans = 0;
  for (std::size_t k = 0; k < recorders.size(); ++k) {
    recorders[k]->write_csv(out, k);
    spans += recorders[k]->span_count();
  }
  if (std::fclose(out) != 0) return false;
  std::cout << "# spans: " << spans << " written to " << path << "\n";
  return true;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (args.workload == candidate.name) workload = &candidate;
  if (workload == nullptr) usage("unknown workload " + args.workload);

  lagover::telemetry::set_alloc_tracking(true);
  std::cout << "# lagover perfbench: workload " << workload->name << ", seed "
            << args.seed << ", seconds " << args.seconds << ", trace "
            << (args.trace ? 1 : 0) << "\n";

  std::vector<InstanceResult> untraced;
  std::vector<InstanceResult> traced;
  std::vector<double> overhead;
  std::vector<std::string> failures;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto tally = [&](bool ok, std::uint64_t k, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    failures.push_back("instance " + std::to_string(k) + ": " + what);
  };
  auto tally_result = [&](const InstanceResult& result, std::uint64_t k,
                          const char* label) {
    std::string what = label;
    for (const std::string& failure : result.failures) what += "; " + failure;
    tally(result.failures.empty(), k, what);
  };

  // Untraced runs complete one instance of every input; traced runs, at
  // least one pair.
  const std::uint64_t min_instances = args.trace ? 1 : workload->inputs;
  const std::uint64_t start = now_ns();
  for (std::uint64_t k = 0;
       k < min_instances || seconds_since(start) < args.seconds; ++k) {
    const std::size_t input = k % workload->inputs;
    InstanceOptions options;
    options.seed = input_seed(args.seed, input);
    if (!args.trace) {
      untraced.push_back(workload->run(options));
      InstanceResult& result = untraced.back();
      result.input = input;
      tally_result(result, k, "untraced");
      if (k >= workload->inputs)
        tally(same_run(untraced[input].fingerprint, result.fingerprint), k,
              "the instance differs from the input's first instance");
      std::cout << "# instance " << k << " (input " << input
                << "): setup_s " << number(result.setup_s) << ", run_s "
                << number(result.run_s) << ", allocs "
                << number(result.allocs) << ", converge_rounds "
                << number(result.converge_rounds) << "\n";
      continue;
    }
    // Alternate which side runs first so warm-up favours neither.
    recorders.push_back(std::make_unique<SpanRecorder>());
    InstanceOptions traced_options = options;
    traced_options.tracer = recorders.back().get();
    if (k % 2 == 0) {
      untraced.push_back(workload->run(options));
      traced.push_back(workload->run(traced_options));
    } else {
      traced.push_back(workload->run(traced_options));
      untraced.push_back(workload->run(options));
    }
    tally_result(untraced.back(), k, "untraced");
    tally_result(traced.back(), k, "traced");
    overhead.push_back(traced.back().run_s / untraced.back().run_s - 1.0);
    tally(same_run(untraced.back().fingerprint, traced.back().fingerprint), k,
          "the traced run differs from the untraced run");
    if (k == 0 && workload->has_reference_driver) {
      InstanceOptions reference = options;
      reference.reference_driver = true;
      const InstanceResult result = workload->run(reference);
      tally_result(result, k, "one-call driver");
      tally(same_final_state(untraced.back().fingerprint, result.fingerprint),
            k, "the chunked driver's final state differs from the one-call "
               "driver's");
    }
  }

  for (const std::string& failure : failures)
    std::cout << "# FAILED " << failure << "\n";
  const std::map<std::string, double> metrics =
      args.trace ? per_layer(traced, overhead)
                 : end_to_end(untraced, *workload);
  std::vector<Metric> reported(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (args.trace)
    reported.assign(std::begin(kPerLayer), std::end(kPerLayer));
  for (const Metric& metric : reported)
    std::cout << "# " << metric.name << " = "
              << number(metrics.at(metric.name)) << " " << metric.unit
              << "\n";
  std::cout << "# failed_frac = "
            << number(static_cast<double>(failed) /
                      static_cast<double>(attempted))
            << " ratio\n";
  if (args.trace && !args.spans.empty() &&
      !write_spans(args.spans, recorders)) {
    std::cerr << "lagover_perfbench: cannot write " << args.spans << "\n";
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(reported[i].name) + "\": {\"value\": " +
            number(metrics.at(reported[i].name)) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "lagover_perfbench: " << error.what() << "\n";
    return 1;
  }
}
