// Scenario-engine tests: the strict "lagover.scenario.v1" parser
// (defaults, full documents, loud rejection of typos and out-of-range
// values), the domain/adversary/injector builders, loading the checked-in
// example scenarios, and trial-level determinism (same scenario + trial
// index, same result).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "workload/scenario.hpp"

#ifndef LAGOVER_SOURCE_DIR
#define LAGOVER_SOURCE_DIR "."
#endif

namespace lagover {
namespace {

using workload::Scenario;
using workload::ScenarioTrialResult;

Scenario parse_ok(const std::string& text) {
  Json json;
  std::string error;
  EXPECT_TRUE(Json::parse(text, json, &error)) << error;
  Scenario scenario;
  EXPECT_TRUE(workload::parse_scenario(json, scenario, &error)) << error;
  return scenario;
}

std::string parse_error(const std::string& text) {
  Json json;
  std::string error;
  EXPECT_TRUE(Json::parse(text, json, &error)) << error;
  Scenario scenario;
  EXPECT_FALSE(workload::parse_scenario(json, scenario, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(ScenarioParseTest, MinimalDocumentGetsDefaults) {
  const Scenario s =
      parse_ok(R"({"schema": "lagover.scenario.v1", "name": "minimal"})");
  EXPECT_EQ(s.name, "minimal");
  EXPECT_TRUE(s.async);
  EXPECT_EQ(s.algorithm, AlgorithmKind::kHybrid);
  EXPECT_EQ(s.oracle, OracleKind::kRandomDelay);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_EQ(s.trials, 1);
  EXPECT_DOUBLE_EQ(s.horizon, 600.0);
  EXPECT_EQ(s.workload, WorkloadKind::kBiUnCorr);
  EXPECT_FALSE(s.has_churn);
  EXPECT_FALSE(s.has_faults());
  EXPECT_TRUE(s.adversary.empty());
  EXPECT_FALSE(s.defense.enabled);
  EXPECT_FALSE(s.feed.enabled);
}

TEST(ScenarioParseTest, FullDocumentRoundTrips) {
  const Scenario s = parse_ok(R"({
    "schema": "lagover.scenario.v1",
    "name": "full",
    "engine": "rounds",
    "algorithm": "greedy",
    "oracle": "random",
    "seed": 99, "trials": 4, "horizon": 250,
    "workload": {"kind": "tf1", "peers": 48, "max_latency": 8},
    "churn": {"leave_probability": 0.02, "rejoin_probability": 0.3},
    "faults": [{"start": 10, "end": 40, "oracle_outage": true,
                "partition_fraction": 0.25}],
    "domains": [{"name": "rack-a", "fraction": 0.2,
                 "windows": [{"start": 20, "end": 60, "fault": "crash"}]},
                {"name": "rack-b", "members": [3, 4, 5],
                 "windows": [{"start": 80, "end": 90,
                              "fault": "partition"}]}],
    "adversary": {"delay_liar_fraction": 0.1, "flapper_fraction": 0.05,
                  "delay_understatement": 3, "salt": 7},
    "defense": {"enabled": true, "probation_threshold": 1.5,
                "quarantine_threshold": 4.0, "blacklist_threshold": 9.0,
                "receipt_audit": false},
    "feed": {"duration": 120, "push_loss": 0.1, "recovery": true}
  })");
  EXPECT_FALSE(s.async);
  EXPECT_EQ(s.algorithm, AlgorithmKind::kGreedy);
  EXPECT_EQ(s.oracle, OracleKind::kRandom);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.trials, 4);
  EXPECT_EQ(s.workload, WorkloadKind::kTf1);
  EXPECT_EQ(s.workload_params.peers, 48u);
  EXPECT_TRUE(s.has_churn);
  EXPECT_DOUBLE_EQ(s.churn_leave, 0.02);
  EXPECT_TRUE(s.has_faults());
  EXPECT_TRUE(s.fault_plan.has_oracle_faults());
  ASSERT_EQ(s.domains.size(), 2u);
  EXPECT_DOUBLE_EQ(s.domains[0].fraction, 0.2);
  EXPECT_EQ(s.domains[1].members.size(), 3u);
  EXPECT_EQ(s.domains[1].windows[0].fault, fault::DomainFault::kPartition);
  EXPECT_DOUBLE_EQ(s.adversary.delay_liar_fraction, 0.1);
  EXPECT_EQ(s.adversary.delay_understatement, 3);
  EXPECT_EQ(s.adversary.salt, 7u);
  EXPECT_TRUE(s.defense.enabled);
  EXPECT_DOUBLE_EQ(s.defense.quarantine_threshold, 4.0);
  EXPECT_FALSE(s.defense.receipt_audit);
  EXPECT_TRUE(s.defense.delay_verification);  // untouched default
  EXPECT_TRUE(s.feed.enabled);
  EXPECT_TRUE(s.feed.recovery);
  EXPECT_DOUBLE_EQ(s.feed.push_loss, 0.1);
}

TEST(ScenarioParseTest, RejectsWrongSchemaTagAndMissingName) {
  parse_error(R"({"schema": "lagover.scenario.v2", "name": "x"})");
  parse_error(R"({"schema": "lagover.scenario.v1"})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": ""})");
}

TEST(ScenarioParseTest, RejectsUnknownKeysEverywhere) {
  // Typos fail loudly instead of silently running a different scenario.
  EXPECT_NE(parse_error(R"({"schema": "lagover.scenario.v1",
                            "name": "x", "trails": 3})")
                .find("trails"),
            std::string::npos);
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "workload": {"peer": 40}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "adversary": {"delay_liars": 0.1}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "defense": {"enable": true}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "domains": [{"name": "r", "fraction": 0.1,
                               "windows": [{"start": 0, "end": 1,
                                            "kind": "crash"}]}]})");
}

TEST(ScenarioParseTest, RejectsBadEnumsAndRanges) {
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "algorithm": "fastest"})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "engine": "turbo"})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "workload": {"kind": "zipf"}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "trials": 0})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "horizon": -5})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "churn": {"leave_probability": 1.5}})");
  // Adversary fractions must sum to <= 1.
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "adversary": {"delay_liar_fraction": 0.6,
                                "free_rider_fraction": 0.6}})");
  // Ladder thresholds must be ordered.
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "defense": {"probation_threshold": 6.0,
                              "quarantine_threshold": 5.0}})");
  // Domains take fraction XOR members, and need windows.
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "domains": [{"name": "r", "fraction": 0.2,
                               "members": [1],
                               "windows": [{"start": 0, "end": 1}]}]})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "domains": [{"name": "r", "fraction": 0.2}]})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "domains": [{"name": "r", "fraction": 0.2,
                               "windows": [{"start": 5, "end": 2}]}]})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "feed": {"push_loss": 1.0}})");
}

TEST(ScenarioParseTest, IntegerKeysTakeOnlyIntegersInRange) {
  // Each document sets one integer key badly: a float, a string, a value
  // beyond the key's range, or one that would wrap in a narrowing cast.
  // The last three set the live-only capacity rules (LiveConfig), which
  // the feed phase, an event-core run, cannot honour, so the schema
  // does not know them. Each must fail to parse with an error naming
  // the key.
  const std::pair<const char*, const char*> cases[] = {
      {R"("trials": 3000000000)", "trials"},
      {R"("trials": 2.9)", "trials"},
      {R"("seed": "abc")", "seed"},
      {R"("seed": -1)", "seed"},
      {R"("workload": {"peers": 20.7})", "peers"},
      {R"("workload": {"peers": 1})", "peers"},
      {R"("workload": {"max_latency": 1e300})", "max_latency"},
      {R"("workload": {"source_fanout": "x"})", "source_fanout"},
      {R"("workload": {"source_fanout": -3})", "source_fanout"},
      {R"("workload": {"tf1_fanout": 0})", "tf1_fanout"},
      {R"("workload": {"rand_fanout_max": 1.5})", "rand_fanout_max"},
      {R"("workload": {"peers": 20},
          "domains": [{"name": "r", "members": [999],
                       "windows": [{"start": 0, "end": 1}]}])",
       "members"},
      {R"("domains": [{"name": "r", "members": [2.5],
                       "windows": [{"start": 0, "end": 1}]}])",
       "members"},
      {R"("adversary": {"delay_liar_fraction": 0.1,
                        "delay_understatement": 0})",
       "delay_understatement"},
      {R"("adversary": {"delay_liar_fraction": 0.1, "salt": "s"})", "salt"},
      {R"("overload": {"admission": {"rate_limit": 1,
                                     "breaker_trip_windows": 1.5}})",
       "breaker_trip_windows"},
      {R"("overload": {"admission": {"rate_limit": 1,
                                     "breaker_close_windows": 0}})",
       "breaker_close_windows"},
      {R"("overload": {"capacity": {"relay_budget": -1}})", "relay_budget"},
      {R"("overload": {"capacity": {"queue_limit": 4294967296}})",
       "queue_limit"},
      {R"("overload": {"capacity": {"fanout_factor": 0.5}})",
       "fanout_factor"},
      {R"("overload": {"capacity": {"recovery_ticks": 3}})",
       "recovery_ticks"},
      {R"("overload": {"capacity": {"starve_limit": 30}})", "starve_limit"},
  };
  for (const auto& [fields, key] : cases) {
    const std::string doc =
        std::string(R"({"schema": "lagover.scenario.v1", "name": "x", )") +
        fields + "}";
    const std::string error = parse_error(doc);
    EXPECT_NE(error.find(key), std::string::npos) << doc << "\n-> " << error;
  }
  // The bounds themselves are accepted.
  const Scenario edge = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "edge", "seed": 0,
    "trials": 1, "workload": {"peers": 20, "source_fanout": 0},
    "domains": [{"name": "r", "members": [1, 20],
                 "windows": [{"start": 0, "end": 1}]}]
  })");
  EXPECT_EQ(edge.seed, 0u);
  EXPECT_EQ(edge.workload_params.peers, 20u);
  EXPECT_EQ(edge.domains[0].members, (std::vector<NodeId>{1, 20}));
}

TEST(ScenarioParseTest, OverloadSectionRoundTrips) {
  const Scenario s = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "crowd",
    "overload": {
      "admission": {"rate_limit": 12, "window": 4.0, "retry_after": 1.5,
                    "breaker_trip_windows": 2, "breaker_cooldown": 10.0,
                    "breaker_close_windows": 3, "serve_stale": false},
      "capacity": {"relay_budget": 4, "queue_limit": 16, "shedding": true,
                   "squeezes": [{"start": 50, "end": 80, "factor": 0.25}]},
      "join_storm": {"at": 60, "fraction": 0.5}
    }
  })");
  EXPECT_FALSE(s.overload.empty());
  EXPECT_DOUBLE_EQ(s.overload.admission.rate_limit, 12.0);
  EXPECT_DOUBLE_EQ(s.overload.admission.window, 4.0);
  EXPECT_EQ(s.overload.admission.breaker_trip_windows, 2);
  EXPECT_EQ(s.overload.admission.breaker_close_windows, 3);
  EXPECT_FALSE(s.overload.admission.serve_stale);
  EXPECT_EQ(s.overload.capacity.relay_budget, 4u);
  EXPECT_EQ(s.overload.capacity.queue_limit, 16u);
  EXPECT_TRUE(s.overload.capacity.shedding);
  ASSERT_EQ(s.overload.capacity.squeezes.size(), 1u);
  EXPECT_DOUBLE_EQ(s.overload.capacity.squeezes[0].factor, 0.25);
  EXPECT_TRUE(s.overload.has_join_storm);
  EXPECT_DOUBLE_EQ(s.overload.join_storm_at, 60.0);
  EXPECT_DOUBLE_EQ(s.overload.join_storm_fraction, 0.5);
}

TEST(ScenarioParseTest, OverloadRejectsBadShapes) {
  // An empty overload section declares nothing — that's a typo.
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {"admission": {"rate_limit": 0}}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {"capacity": {"relay_budget": 2,
                    "squeezes": [{"start": 10, "end": 5,
                                  "factor": 0.5}]}}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {"capacity": {"relay_budget": 2,
                    "squeezes": [{"start": 0, "end": 5,
                                  "factor": 1.5}]}}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {"join_storm": {"at": 60,
                                              "fraction": 1.0}}})");
  // Unknown keys fail loudly, as everywhere else in the schema.
  EXPECT_NE(parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                            "overload": {"admision": {"rate_limit": 5}}})")
                .find("admision"),
            std::string::npos);
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "overload": {"capacity": {"budget": 4}}})");
  // A storm needs the parked crowd undisturbed; churn would blur it.
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "churn": {"leave_probability": 0.01},
                  "overload": {"join_storm": {"at": 60,
                                              "fraction": 0.5}}})");
}

TEST(ScenarioBuildTest, BuildersMaterializeDeclaredSections) {
  const Scenario empty =
      parse_ok(R"({"schema": "lagover.scenario.v1", "name": "x"})");
  EXPECT_EQ(workload::build_domains(empty, 41), nullptr);
  EXPECT_EQ(workload::build_adversary(empty, 41), nullptr);
  EXPECT_EQ(workload::build_fault_injector(empty, 41, 1), nullptr);

  const Scenario declared = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "x", "seed": 13,
    "workload": {"peers": 100},
    "domains": [{"name": "rack-a", "fraction": 0.25,
                 "windows": [{"start": 0, "end": 10}]}],
    "adversary": {"free_rider_fraction": 0.1}
  })");
  const auto domains = workload::build_domains(declared, 101);
  ASSERT_NE(domains, nullptr);
  ASSERT_EQ(domains->domains().size(), 1u);
  // The fractional membership materialized deterministically.
  const auto& members = domains->domains()[0].members;
  EXPECT_FALSE(members.empty());
  EXPECT_EQ(members,
            fault::FailureDomains::hashed_members("rack-a", 101, 0.25, 13));
  const auto book = workload::build_adversary(declared, 101);
  ASSERT_NE(book, nullptr);
  EXPECT_GT(book->count(fault::AdversaryClass::kFreeRider), 0u);
  // Domains ride the composed injector even without a fault plan.
  const auto injector = workload::build_fault_injector(declared, 101, 13);
  ASSERT_NE(injector, nullptr);
  EXPECT_NE(injector->domains(), nullptr);
}

TEST(ScenarioFileTest, CheckedInExamplesLoad) {
  for (const char* name :
       {"/examples/scenario_byzantine.json",
        "/examples/scenario_rack_outage.json",
        "/examples/scenario_overload.json"}) {
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(workload::load_scenario_file(
        std::string(LAGOVER_SOURCE_DIR) + name, scenario, &error))
        << name << ": " << error;
    EXPECT_FALSE(scenario.name.empty());
    EXPECT_TRUE(scenario.feed.enabled);
  }
  // The overload example actually declares all three subsections.
  Scenario overload;
  std::string error;
  ASSERT_TRUE(workload::load_scenario_file(
      std::string(LAGOVER_SOURCE_DIR) + "/examples/scenario_overload.json",
      overload, &error))
      << error;
  EXPECT_FALSE(overload.overload.empty());
  EXPECT_FALSE(overload.overload.admission.empty());
  EXPECT_FALSE(overload.overload.capacity.empty());
  EXPECT_TRUE(overload.overload.has_join_storm);

  Scenario scenario;
  EXPECT_FALSE(workload::load_scenario_file(
      std::string(LAGOVER_SOURCE_DIR) + "/examples/no_such.json", scenario,
      &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioRunTest, OverloadTrialPopulatesCountersDeterministically) {
  const Scenario scenario = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "overload-run",
    "seed": 33, "horizon": 120,
    "workload": {"peers": 40},
    "overload": {
      "admission": {"rate_limit": 2, "window": 5.0},
      "capacity": {"relay_budget": 1, "shedding": true},
      "join_storm": {"at": 30, "fraction": 0.5}
    },
    "feed": {"duration": 60, "publish_period": 1.0}
  })");
  const ScenarioTrialResult a = workload::run_scenario_trial(scenario, 0);
  const ScenarioTrialResult b = workload::run_scenario_trial(scenario, 0);
  EXPECT_GT(a.oracle_admitted, 0u);
  EXPECT_GT(a.storm_joiners, 0u);
  EXPECT_EQ(a.oracle_admitted, b.oracle_admitted);
  EXPECT_EQ(a.oracle_rejected, b.oracle_rejected);
  EXPECT_EQ(a.oracle_stale_served, b.oracle_stale_served);
  EXPECT_EQ(a.oracle_breaker_trips, b.oracle_breaker_trips);
  EXPECT_EQ(a.starvation_detaches, b.starvation_detaches);
  EXPECT_EQ(a.feed_shed_pushes, b.feed_shed_pushes);
  EXPECT_EQ(a.storm_joiners, b.storm_joiners);
  EXPECT_DOUBLE_EQ(a.feed_delivery_ratio, b.feed_delivery_ratio);
}

TEST(ScenarioRunTest, TrialsAreDeterministic) {
  const Scenario scenario = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "determinism",
    "seed": 21, "horizon": 80,
    "workload": {"peers": 30},
    "adversary": {"delay_liar_fraction": 0.1},
    "defense": {"enabled": true},
    "feed": {"duration": 30}
  })");
  const ScenarioTrialResult a = workload::run_scenario_trial(scenario, 0);
  const ScenarioTrialResult b = workload::run_scenario_trial(scenario, 0);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_DOUBLE_EQ(a.satisfied_fraction, b.satisfied_fraction);
  EXPECT_EQ(a.suspicion_reports, b.suspicion_reports);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.blacklists, b.blacklists);
  EXPECT_EQ(a.oracle_implausible_skips, b.oracle_implausible_skips);
  EXPECT_DOUBLE_EQ(a.feed_delivery_ratio, b.feed_delivery_ratio);
  EXPECT_DOUBLE_EQ(a.feed_late_fraction, b.feed_late_fraction);
  EXPECT_GE(a.feed_delivery_ratio, 0.0);  // the feed phase actually ran
}

}  // namespace
}  // namespace lagover
