// Scenario-engine tests: the strict "lagover.scenario.v1" parser
// (defaults, full documents, loud rejection of typos and out-of-range
// values), the domain/adversary/injector builders, loading the checked-in
// example scenarios, a seeded mutation harness over hostile documents,
// and trial-level determinism (same scenario + trial index, same result).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
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

/// The checked-in example scenarios, examples/scenario_*.json, sorted.
std::vector<std::string> example_scenarios() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(LAGOVER_SOURCE_DIR) + "/examples")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("scenario_", 0) == 0 && entry.path().extension() == ".json")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Declares every section but overload (the harness mutates it too).
const char* const kFullDocument = R"({
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
  })";

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
  const Scenario s = parse_ok(kFullDocument);
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
  // Three set the live-only capacity rules (LiveConfig), which the feed
  // phase, an event-core run, cannot honour, so the schema does not
  // know them. Then every number key in turn is set just outside its
  // closed, finite range or to 1e400: time values stop at 2^20, periods,
  // waits and rate limits start at 2^-20. Each must fail to parse with
  // an error naming the key.
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
      // The documents that used to hang bench_scenario or run one round.
      {R"("feed": {"duration": 1e400})", "duration"},
      {R"("feed": {"duration": 10, "recovery": true,
                   "recovery_period": 1e-300})",
       "recovery_period"},
      {R"("horizon": 1e400, "churn": {"leave_probability": 0.01})",
       "horizon"},
      {R"("engine": "rounds", "horizon": 1e300)", "horizon"},
      // One row per number key.
      {R"("horizon": 1048577)", "horizon"},
      {R"("churn": {"leave_probability": -0.1})", "leave_probability"},
      {R"("churn": {"rejoin_probability": 1e400})", "rejoin_probability"},
      {R"("faults": [{"start": -1, "end": 5}])", "start"},
      {R"("faults": [{"start": 0, "end": 1048577}])", "end"},
      {R"("faults": [{"start": 0, "end": 5, "drop_probability": 1.5}])",
       "drop_probability"},
      {R"("faults": [{"start": 0, "end": 5, "delay_probability": -0.5}])",
       "delay_probability"},
      {R"("faults": [{"start": 0, "end": 5, "delay_amount": 1e400}])",
       "delay_amount"},
      {R"("faults": [{"start": 0, "end": 5,
                      "duplicate_probability": 1e400}])",
       "duplicate_probability"},
      {R"("faults": [{"start": 0, "end": 5,
                      "oracle_staleness": 1048577}])",
       "oracle_staleness"},
      {R"("faults": [{"start": 0, "end": 5, "crash_probability": -1}])",
       "crash_probability"},
      {R"("faults": [{"start": 0, "end": 5, "crash_downtime": -1}])",
       "crash_downtime"},
      {R"("faults": [{"start": 0, "end": 5, "partition_fraction": 1}])",
       "partition_fraction"},
      {R"("domains": [{"name": "r", "fraction": 1.5,
                       "windows": [{"start": 0, "end": 1}]}])",
       "fraction"},
      {R"("domains": [{"name": "r", "fraction": 0.2,
                       "windows": [{"start": -1, "end": 1}]}])",
       "start"},
      {R"("domains": [{"name": "r", "fraction": 0.2,
                       "windows": [{"start": 0, "end": 1e400}]}])",
       "end"},
      {R"("adversary": {"delay_liar_fraction": 1.5})", "delay_liar_fraction"},
      {R"("adversary": {"fanout_liar_fraction": -0.1})",
       "fanout_liar_fraction"},
      {R"("adversary": {"free_rider_fraction": 1e400})",
       "free_rider_fraction"},
      {R"("adversary": {"flapper_fraction": 2})", "flapper_fraction"},
      {R"("adversary": {"flapper_fraction": 0.1, "flap_period": 0})",
       "flap_period"},
      {R"("adversary": {"flapper_fraction": 0.1, "flap_duty": 1e400})",
       "flap_duty"},
      {R"("defense": {"probation_threshold": -1})", "probation_threshold"},
      {R"("defense": {"quarantine_threshold": 1e400})",
       "quarantine_threshold"},
      {R"("defense": {"blacklist_threshold": 1048577})",
       "blacklist_threshold"},
      {R"("feed": {"push_loss": -0.1})", "push_loss"},
      {R"("feed": {"publish_period": 1e-300})", "publish_period"},
      {R"("overload": {"admission": {"rate_limit": 1e400}})", "rate_limit"},
      {R"("overload": {"admission": {"rate_limit": 1, "window": 0}})",
       "window"},
      {R"("overload": {"admission": {"rate_limit": 1,
                                     "retry_after": 1e-300}})",
       "retry_after"},
      {R"("overload": {"admission": {"rate_limit": 1,
                                     "breaker_cooldown": 1e400}})",
       "breaker_cooldown"},
      {R"("feed": {"duration": 100},
          "overload": {"capacity": {"relay_budget": 2,
            "squeezes": [{"start": -1, "end": 5}]}})",
       "start"},
      {R"("feed": {"duration": 100},
          "overload": {"capacity": {"relay_budget": 2,
            "squeezes": [{"start": 0, "end": 1e400}]}})",
       "end"},
      {R"("feed": {"duration": 100},
          "overload": {"capacity": {"relay_budget": 2,
            "squeezes": [{"start": 0, "end": 5, "factor": 0}]}})",
       "factor"},
      {R"("overload": {"join_storm": {"at": 1048577}})", "at"},
      {R"("overload": {"join_storm": {"at": 60, "fraction": -1e400}})",
       "fraction"},
      // Keys in range whose ratios ask for more than 2^20 events.
      {R"("feed": {"duration": 1048576,
                   "publish_period": 9.5367431640625e-07})",
       "publish_period"},
      {R"("feed": {"duration": 1048576, "recovery": true,
                   "recovery_period": 0.5})",
       "recovery_period"},
      {R"("horizon": 1048576,
          "adversary": {"flapper_fraction": 0.1, "flap_period": 0.5})",
       "flap_period"},
  };
  for (const auto& [fields, key] : cases) {
    const std::string doc =
        std::string(R"({"schema": "lagover.scenario.v1", "name": "x", )") +
        fields + "}";
    const std::string error = parse_error(doc);
    EXPECT_NE(error.find(key), std::string::npos) << doc << "\n-> " << error;
  }
  // The bounds themselves are accepted: 2^20 = 1048576 and 2^-20 =
  // 9.5367431640625e-07, the periods in a second document whose ratios
  // sit at their own bound of 2^20.
  const Scenario edge = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "edge", "seed": 0,
    "trials": 1, "horizon": 1048576,
    "workload": {"peers": 20, "source_fanout": 0},
    "faults": [{"start": 0, "end": 1048576, "delay_amount": 1048576,
                "oracle_staleness": 1048576, "crash_downtime": 1048576}],
    "domains": [{"name": "r", "members": [1, 20],
                 "windows": [{"start": 1048576, "end": 1048576}]}],
    "adversary": {"flap_period": 9.5367431640625e-07},
    "defense": {"probation_threshold": 1048576,
                "quarantine_threshold": 1048576,
                "blacklist_threshold": 1048576},
    "feed": {"duration": 1048576, "recovery_period": 1,
             "publish_period": 1},
    "overload": {
      "admission": {"rate_limit": 9.5367431640625e-07, "window": 1048576,
                    "retry_after": 9.5367431640625e-07,
                    "breaker_cooldown": 1048576,
                    "breaker_trip_windows": 1048576},
      "capacity": {"relay_budget": 1048576, "queue_limit": 1048576,
                   "squeezes": [{"start": 0, "end": 1048576, "factor": 1}]},
      "join_storm": {"at": 1048576}
    }
  })");
  const double two_pow_20 = 1048576.0;
  EXPECT_EQ(edge.seed, 0u);
  EXPECT_EQ(edge.workload_params.peers, 20u);
  EXPECT_EQ(edge.domains[0].members, (std::vector<NodeId>{1, 20}));
  EXPECT_DOUBLE_EQ(edge.horizon, two_pow_20);
  EXPECT_DOUBLE_EQ(edge.fault_plan.windows()[0].end, two_pow_20);
  EXPECT_DOUBLE_EQ(edge.feed.duration, two_pow_20);
  EXPECT_DOUBLE_EQ(edge.overload.admission.rate_limit, 1.0 / two_pow_20);
  EXPECT_EQ(edge.overload.capacity.relay_budget, 1048576u);
  EXPECT_DOUBLE_EQ(edge.overload.join_storm_at, two_pow_20);
  const Scenario periods = parse_ok(R"({
    "schema": "lagover.scenario.v1", "name": "periods", "horizon": 1,
    "adversary": {"flapper_fraction": 0.1,
                  "flap_period": 9.5367431640625e-07},
    "feed": {"duration": 1, "recovery_period": 9.5367431640625e-07,
             "publish_period": 9.5367431640625e-07}
  })");
  EXPECT_DOUBLE_EQ(periods.feed.publish_period, 1.0 / two_pow_20);
  EXPECT_DOUBLE_EQ(periods.feed.recovery_period, 1.0 / two_pow_20);
  EXPECT_DOUBLE_EQ(periods.adversary.flap_period, 1.0 / two_pow_20);
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
    },
    "feed": {"duration": 100}
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
                  "feed": {"duration": 100},
                  "overload": {"capacity": {"relay_budget": 2,
                    "squeezes": [{"start": 10, "end": 5,
                                  "factor": 0.5}]}}})");
  parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                  "feed": {"duration": 100},
                  "overload": {"capacity": {"relay_budget": 2,
                    "squeezes": [{"start": 0, "end": 5,
                                  "factor": 1.5}]}}})");
  // Capacity binds only in the feed phase, which runs on its own clock
  // from 0 to feed.duration: capacity without a feed, or a squeeze that
  // starts once the feed is over, could never take effect.
  EXPECT_NE(parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                            "overload": {"capacity": {"relay_budget": 2}}})")
                .find("feed"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"schema": "lagover.scenario.v1", "name": "x",
                            "overload": {"capacity": {"relay_budget": 2,
                              "squeezes": [{"start": 150, "end": 200}]}},
                            "feed": {"duration": 150}})")
                .find("start"),
            std::string::npos);
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
  const std::vector<std::string> paths = example_scenarios();
  EXPECT_GE(paths.size(), 3u);
  for (const std::string& path : paths) {
    Scenario scenario;
    std::string error;
    ASSERT_TRUE(workload::load_scenario_file(path, scenario, &error))
        << path << ": " << error;
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

// ------------------------------------------------- hostile documents

std::size_t count_values(const Json& node) {
  std::size_t count = 1;
  for (const Json& element : node.elements()) count += count_values(element);
  for (const auto& member : node.members())
    count += count_values(member.second);
  return count;
}

/// `node` serialized with its `target`-th value (pre-order, counted in
/// `index`) replaced by the raw JSON text `raw` — text Json::dump cannot
/// write, such as 1e400.
std::string replaced(const Json& node, std::size_t target,
                     const std::string& raw, std::size_t& index) {
  if (index++ == target) return raw;
  if (!node.is_array() && !node.is_object()) return node.dump();
  std::string out;
  for (const Json& element : node.elements()) {
    if (!out.empty()) out += ',';
    out += replaced(element, target, raw, index);
  }
  for (const auto& [key, value] : node.members()) {
    if (!out.empty()) out += ',';
    out += json_escape(key) + ":";
    out += replaced(value, target, raw, index);
  }
  return node.is_array() ? "[" + out + "]" : "{" + out + "}";
}

// Seeded mutations of every example and of the full document: every
// value replaced by each JSON kind and by numbers at and past the edges
// of the ranges, every truncation, deep nesting, and byte flips. Each
// input must come back from the parsers without a crash (the sanitizer
// build runs this too), and an accepted one must keep every time value
// the run loops on, and every span over the period that divides it,
// finite and within [0, 2^20].
TEST(ScenarioMutationTest, HostileDocumentsNeverCrashOrEscapeTheirRanges) {
  std::vector<std::string> seeds{kFullDocument};
  for (const std::string& path : example_scenarios()) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    seeds.push_back(text.str());
  }
  const char* const values[] = {
      "null", "true",   "false",   "7",       "0.5",     "\"x\"",
      "[]",   "{}",     "[{}]",    "1e400",   "-1e400",  "1e-300",
      "-1",   "0",      "1",       "1048576", "1048577", "9223372036854775808"};
  const std::string flip_bytes = "0123456789-+.eE\"{}[],: tfn";
  constexpr int kFlipsPerSeed = 25000;

  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t escaped = 0;
  std::string first_escape;
  const auto check = [&](const std::string& text) {
    ++inputs;
    Json json;
    Scenario s;
    if (!Json::parse(text, json) || !workload::parse_scenario(json, s))
      return;
    ++accepted;
    std::vector<double> times{s.horizon, s.feed.duration,
                              s.feed.recovery_period, s.feed.publish_period};
    for (const auto& window : s.fault_plan.windows())
      times.insert(times.end(), {window.start, window.end});
    for (const auto& domain : s.domains)
      for (const auto& window : domain.windows)
        times.insert(times.end(), {window.start, window.end});
    for (const auto& squeeze : s.overload.capacity.squeezes)
      times.insert(times.end(), {squeeze.start, squeeze.end});
    // So is each ratio of a span to the period that divides it.
    std::vector<double> ratios{s.feed.duration / s.feed.publish_period,
                               s.feed.duration / s.feed.recovery_period};
    if (s.adversary.flapper_fraction > 0.0)
      ratios.push_back(s.horizon / s.adversary.flap_period);
    times.insert(times.end(), ratios.begin(), ratios.end());
    for (const double t : times)
      if (!(t >= 0.0 && t <= 1048576.0)) {
        if (escaped++ == 0) first_escape = text;
        return;
      }
  };

  Rng rng(20);
  for (const std::string& seed : seeds) {
    Json document;
    ASSERT_TRUE(Json::parse(seed, document)) << seed;
    const std::size_t count = count_values(document);
    for (std::size_t target = 0; target < count; ++target)
      for (const char* value : values) {
        std::size_t index = 0;
        check(replaced(document, target, value, index));
      }
    for (std::size_t length = 0; length < seed.size(); ++length)
      check(seed.substr(0, length));
    for (int round = 0; round < kFlipsPerSeed; ++round) {
      std::string text = seed;
      for (std::uint64_t k = rng.next_below(4); k < 4; ++k) {
        const auto at = static_cast<std::size_t>(rng.next_below(text.size()));
        text[at] = rng.bernoulli(0.5)
                       ? static_cast<char>(rng.next_below(256))
                       : flip_bytes[rng.next_below(flip_bytes.size())];
      }
      check(text);
    }
  }
  check(std::string(100000, '['));
  check(R"({"schema": "lagover.scenario.v1", "name": "x", "feed": )" +
        std::string(300, '{'));
  EXPECT_GE(inputs, 100000u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(escaped, 0u) << first_escape;
  RecordProperty("inputs", static_cast<int>(inputs));
  RecordProperty("accepted", static_cast<int>(accepted));
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
