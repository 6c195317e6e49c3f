// Declarative experiment scenarios ("lagover.scenario.v1"): one JSON
// document composes a topology workload, latency/feed settings, churn,
// a fault plan, correlated failure domains, a Byzantine adversary mix,
// and the defense ladder — everything an adversarial-robustness run
// needs — so experiments are data, not bespoke bench binaries. A single
// driver (bench_scenario) loads a file, runs it, and emits the usual
// "lagover.bench.v1" summary.
//
// The schema (all sections optional except "name"; unknown keys are
// rejected so typos fail loudly in CI). Integer keys take JSON integers
// only ("3", not "3.0" or "3e0") within their ranges: seed and salt in
// [0, 2^63 - 1], domain members in [1, peers], and the count-like keys
// (trials, peers, latencies, fanouts, windows, ticks) at most 2^20:
//
//   {
//     "schema": "lagover.scenario.v1",
//     "name": "rack-outage",
//     "engine": "async" | "rounds",            // default "async"
//     "algorithm": "greedy" | "hybrid" | "fanout_greedy",
//     "oracle": "random" | "random_capacity" |
//               "random_delay_capacity" | "random_delay",
//     "seed": 1, "trials": 3,
//     "horizon": 600.0,                        // time units / rounds
//     "workload": {"kind": "tf1" | "rand" | "bi_corr" | "bi_uncorr",
//                  "peers": 120, "max_latency": 10},
//     "churn": {"leave_probability": 0.01, "rejoin_probability": 0.2},
//     "faults": [{"start": 100, "end": 200,    // FaultPlan windows
//                 "drop_probability": 0.2, "crash_probability": 0.01,
//                 "crash_downtime": 5, "partition_fraction": 0.3,
//                 "oracle_outage": true, "oracle_staleness": 30,
//                 "delay_probability": 0.1, "delay_amount": 2.0,
//                 "duplicate_probability": 0.05}],
//     "domains": [{"name": "rack-a",           // correlated blast radii
//                  "fraction": 0.25,           // or "members": [ids]
//                  "windows": [{"start": 150, "end": 220,
//                               "fault": "crash" | "partition"}]}],
//     "adversary": {"delay_liar_fraction": 0.05,
//                   "fanout_liar_fraction": 0.0,
//                   "free_rider_fraction": 0.0,
//                   "flapper_fraction": 0.0,
//                   "delay_understatement": 2,
//                   "flap_period": 30.0, "flap_duty": 0.5,
//                   "salt": 726693},
//     "defense": {"enabled": true,
//                 "probation_threshold": 2.0,
//                 "quarantine_threshold": 5.0,
//                 "blacklist_threshold": 12.0,
//                 "oracle_plausibility": true,
//                 "delay_verification": true, "receipt_audit": true},
//     "feed": {"duration": 300.0, "push_loss": 0.05,
//              "recovery": true, "recovery_period": 2.0,
//              "publish_period": 3.0},
//     "overload": {                             // overload resilience
//       "admission": {"rate_limit": 20, "window": 5.0,
//                     "retry_after": 2.0, "breaker_trip_windows": 3,
//                     "breaker_cooldown": 20.0,
//                     "breaker_close_windows": 2, "serve_stale": true},
//       "capacity": {"relay_budget": 4, "queue_limit": 16,  // feed phase
//                    "shedding": true,
//                    "squeezes": [{"start": 100, "end": 200,
//                                  "factor": 0.5}]},
//       "join_storm": {"at": 50, "fraction": 0.5}  // excludes "churn"
//     }
//   }
//
// Determinism: a scenario names every seed it uses, so two runs of the
// same file produce byte-identical results (CI asserts this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/admission.hpp"
#include "core/types.hpp"
#include "fault/byzantine.hpp"
#include "feed/overload.hpp"
#include "fault/domains.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "health/suspicion.hpp"
#include "workload/constraints.hpp"

namespace lagover::workload {

/// Correlated-failure domain as declared (membership may be a fraction
/// that is only materialized once the population size is known).
struct ScenarioDomain {
  std::string name;
  double fraction = 0.0;              ///< hashed membership when > 0
  std::vector<NodeId> members;        ///< explicit membership otherwise
  std::vector<fault::DomainWindow> windows;
};

/// Optional feed phase run over the final overlay.
struct ScenarioFeed {
  bool enabled = false;
  double duration = 300.0;
  double push_loss = 0.0;
  bool recovery = false;
  double recovery_period = 2.0;
  double publish_period = 3.0;
};

/// Optional overload section: Oracle admission control, per-relay feed
/// capacity limits, and/or a flash-crowd join storm (a fraction of the
/// consumers parked offline until they all join at once).
struct ScenarioOverload {
  AdmissionConfig admission;      ///< empty() when not declared
  feed::CapacityConfig capacity;  ///< empty() when not declared
  bool has_join_storm = false;
  double join_storm_at = 0.0;        ///< ticks/rounds into the run
  double join_storm_fraction = 0.5;  ///< consumers parked offline

  bool empty() const noexcept {
    return admission.empty() && capacity.empty() && !has_join_storm;
  }
};

/// A parsed "lagover.scenario.v1" document.
struct Scenario {
  std::string name;
  bool async = true;  ///< "engine": "async" (event-driven) or "rounds"
  AlgorithmKind algorithm = AlgorithmKind::kHybrid;
  OracleKind oracle = OracleKind::kRandomDelay;
  std::uint64_t seed = 1;
  int trials = 1;
  double horizon = 600.0;  ///< simulated time units (async) / rounds
  WorkloadKind workload = WorkloadKind::kBiUnCorr;
  WorkloadParams workload_params;
  bool has_churn = false;
  double churn_leave = 0.01;
  double churn_join = 0.2;
  fault::FaultPlan fault_plan;
  std::vector<ScenarioDomain> domains;
  fault::ByzantineSpec adversary;  ///< empty() when no adversary section
  health::DefenseConfig defense;
  ScenarioFeed feed;
  ScenarioOverload overload;

  bool has_faults() const noexcept {
    return !fault_plan.empty() || !domains.empty();
  }
};

/// Parses a scenario document. Returns false (with `error` set when
/// given) on schema violations: wrong "schema" tag, unknown keys,
/// out-of-range values, malformed sections.
bool parse_scenario(const Json& json, Scenario& out,
                    std::string* error = nullptr);

/// Reads + parses a scenario file. Returns false on I/O or schema
/// errors, with `error` describing the failure.
bool load_scenario_file(const std::string& path, Scenario& out,
                        std::string* error = nullptr);

/// Materializes the declared domains for a concrete population size
/// (null when the scenario declares none).
std::shared_ptr<fault::FailureDomains> build_domains(
    const Scenario& scenario, std::size_t node_count);

/// Builds the composed fault injector (plan + domains; null when the
/// scenario is fault-free). `seed` salts the injector's own RNG stream.
std::shared_ptr<fault::FaultInjector> build_fault_injector(
    const Scenario& scenario, std::size_t node_count, std::uint64_t seed);

/// Builds the adversary role table (null when no adversary declared).
std::shared_ptr<fault::AdversaryBook> build_adversary(
    const Scenario& scenario, std::size_t node_count);

/// One trial's outcome, aggregated by the scenario driver.
struct ScenarioTrialResult {
  bool converged = false;        ///< every online consumer satisfied
  double satisfied_fraction = 0.0;
  double horizon = 0.0;
  std::uint64_t audit_violations = 0;
  // Defense-ladder counters (0 when defenses are off).
  std::uint64_t suspicion_reports = 0;
  std::uint64_t fenced_reports = 0;
  std::uint64_t probations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t blacklists = 0;
  std::uint64_t quarantine_detaches = 0;
  std::uint64_t oracle_barred_skips = 0;
  std::uint64_t oracle_implausible_skips = 0;
  std::uint64_t domain_crashes = 0;
  // Feed phase (negative ratios = no feed phase ran).
  double feed_delivery_ratio = -1.0;
  double feed_late_fraction = -1.0;
  std::uint64_t feed_withheld_pushes = 0;
  // Overload counters (0 when the scenario has no overload section).
  std::uint64_t oracle_admitted = 0;
  std::uint64_t oracle_rejected = 0;
  std::uint64_t oracle_stale_served = 0;
  std::uint64_t oracle_breaker_trips = 0;
  std::uint64_t starvation_detaches = 0;
  std::uint64_t feed_shed_pushes = 0;
  std::uint64_t storm_joiners = 0;
};

/// Runs one trial of the scenario (trial index shifts the seed
/// deterministically: seed + trial * 7919). Deterministic: same
/// scenario + trial, same result, byte for byte.
ScenarioTrialResult run_scenario_trial(const Scenario& scenario, int trial);

}  // namespace lagover::workload
