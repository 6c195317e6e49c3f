#include "workload/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "feed/reliability.hpp"
#include "workload/churn.hpp"

namespace lagover::workload {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Rejects members of `json` whose key is not in `allowed` — scenario
/// typos must fail loudly, not silently fall back to defaults.
bool check_keys(const Json& json, const char* section,
                std::initializer_list<const char*> allowed,
                std::string* error) {
  for (const auto& [key, value] : json.members()) {
    (void)value;
    bool known = false;
    for (const char* name : allowed)
      if (key == name) {
        known = true;
        break;
      }
    if (!known) {
      set_error(error, std::string("unknown key \"") + key + "\" in " +
                           section);
      return false;
    }
  }
  return true;
}

bool read_number(const Json& json, const char* key, double& out,
                 const char* section, std::string* error) {
  const Json* value = json.find(key);
  if (value == nullptr) return true;  // optional, keep default
  if (!value->is_number()) {
    set_error(error, std::string(section) + "." + key + " must be a number");
    return false;
  }
  out = value->as_number();
  return true;
}

/// Upper bound of every count-like key (peers, latencies, fanouts,
/// trials, windows, ticks): far above any population the benches
/// sweep, and small enough that no derived int arithmetic overflows.
constexpr std::int64_t kMaxCount = std::int64_t{1} << 20;
constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

/// Reads the optional integer `key` into `out`: only a JSON integer
/// within [min, max] passes, checked before the narrowing cast.
template <typename Int>
bool read_int(const Json& json, const char* key, std::int64_t min,
              std::int64_t max, Int& out, const char* section,
              std::string* error) {
  const Json* value = json.find(key);
  if (value == nullptr) return true;  // optional, keep default
  if (!value->is_integer() || value->as_int() < min ||
      value->as_int() > max) {
    set_error(error, std::string(section) + "." + key +
                         " must be an integer in [" + std::to_string(min) +
                         ", " + std::to_string(max) + "]");
    return false;
  }
  out = static_cast<Int>(value->as_int());
  return true;
}

bool read_fraction(const Json& json, const char* key, double& out,
                   const char* section, std::string* error) {
  if (!read_number(json, key, out, section, error)) return false;
  if (out < 0.0 || out > 1.0) {
    set_error(error, std::string(section) + "." + key + " must be in [0, 1]");
    return false;
  }
  return true;
}

bool read_bool(const Json& json, const char* key, bool& out,
               const char* section, std::string* error) {
  const Json* value = json.find(key);
  if (value == nullptr) return true;
  if (!value->is_bool()) {
    set_error(error, std::string(section) + "." + key + " must be a boolean");
    return false;
  }
  out = value->as_bool();
  return true;
}

bool parse_algorithm(const std::string& name, AlgorithmKind& out) {
  if (name == "greedy") out = AlgorithmKind::kGreedy;
  else if (name == "hybrid") out = AlgorithmKind::kHybrid;
  else if (name == "fanout_greedy") out = AlgorithmKind::kFanoutGreedy;
  else return false;
  return true;
}

bool parse_oracle(const std::string& name, OracleKind& out) {
  if (name == "random") out = OracleKind::kRandom;
  else if (name == "random_capacity") out = OracleKind::kRandomCapacity;
  else if (name == "random_delay_capacity")
    out = OracleKind::kRandomDelayCapacity;
  else if (name == "random_delay") out = OracleKind::kRandomDelay;
  else return false;
  return true;
}

bool parse_workload_kind(const std::string& name, WorkloadKind& out) {
  if (name == "tf1") out = WorkloadKind::kTf1;
  else if (name == "rand") out = WorkloadKind::kRand;
  else if (name == "bi_corr") out = WorkloadKind::kBiCorr;
  else if (name == "bi_uncorr") out = WorkloadKind::kBiUnCorr;
  else return false;
  return true;
}

bool parse_workload_section(const Json& json, Scenario& out,
                            std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"workload\" must be an object");
    return false;
  }
  if (!check_keys(json, "workload",
                  {"kind", "peers", "max_latency", "source_fanout",
                   "tf1_fanout", "rand_fanout_max"},
                  error))
    return false;
  if (const Json* kind = json.find("kind")) {
    if (!parse_workload_kind(kind->as_string(), out.workload)) {
      set_error(error, "workload.kind must be one of tf1 | rand | bi_corr |"
                       " bi_uncorr");
      return false;
    }
  }
  WorkloadParams& params = out.workload_params;
  const char* section = "workload";
  // source_fanout 0 = automatic.
  return read_int(json, "peers", 2, kMaxCount, params.peers, section,
                  error) &&
         read_int(json, "max_latency", 1, kMaxCount, params.max_latency,
                  section, error) &&
         read_int(json, "source_fanout", 0, kMaxCount, params.source_fanout,
                  section, error) &&
         read_int(json, "tf1_fanout", 1, kMaxCount, params.tf1_fanout,
                  section, error) &&
         read_int(json, "rand_fanout_max", 0, kMaxCount,
                  params.rand_fanout_max, section, error);
}

bool parse_churn_section(const Json& json, Scenario& out,
                         std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"churn\" must be an object");
    return false;
  }
  if (!check_keys(json, "churn", {"leave_probability", "rejoin_probability"},
                  error))
    return false;
  out.has_churn = true;
  return read_fraction(json, "leave_probability", out.churn_leave, "churn",
                       error) &&
         read_fraction(json, "rejoin_probability", out.churn_join, "churn",
                       error);
}

bool parse_fault_window(const Json& json, fault::FaultWindow& window,
                        std::string* error) {
  if (!json.is_object()) {
    set_error(error, "each faults[] entry must be an object");
    return false;
  }
  if (!check_keys(json, "faults[]",
                  {"start", "end", "drop_probability", "delay_probability",
                   "delay_amount", "duplicate_probability", "oracle_outage",
                   "oracle_staleness", "crash_probability", "crash_downtime",
                   "partition_fraction"},
                  error))
    return false;
  if (json.find("start") == nullptr || json.find("end") == nullptr) {
    set_error(error, "faults[] windows need \"start\" and \"end\"");
    return false;
  }
  if (!read_number(json, "start", window.start, "faults[]", error) ||
      !read_number(json, "end", window.end, "faults[]", error))
    return false;
  if (window.start < 0.0 || window.end < window.start) {
    set_error(error, "faults[] windows need 0 <= start <= end");
    return false;
  }
  fault::FaultSpec& spec = window.spec;
  return read_fraction(json, "drop_probability", spec.drop_probability,
                       "faults[]", error) &&
         read_fraction(json, "delay_probability", spec.delay_probability,
                       "faults[]", error) &&
         read_number(json, "delay_amount", spec.delay_amount, "faults[]",
                     error) &&
         read_fraction(json, "duplicate_probability",
                       spec.duplicate_probability, "faults[]", error) &&
         read_bool(json, "oracle_outage", spec.oracle_outage, "faults[]",
                   error) &&
         read_number(json, "oracle_staleness", spec.oracle_staleness,
                     "faults[]", error) &&
         read_fraction(json, "crash_probability", spec.crash_probability,
                       "faults[]", error) &&
         read_number(json, "crash_downtime", spec.crash_downtime, "faults[]",
                     error) &&
         read_fraction(json, "partition_fraction", spec.partition_fraction,
                       "faults[]", error);
}

/// `peers` bounds the explicit member ids.
bool parse_domain(const Json& json, std::size_t peers, ScenarioDomain& domain,
                  std::string* error) {
  if (!json.is_object()) {
    set_error(error, "each domains[] entry must be an object");
    return false;
  }
  if (!check_keys(json, "domains[]", {"name", "fraction", "members", "windows"},
                  error))
    return false;
  const Json* name = json.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    set_error(error, "domains[] entries need a non-empty \"name\"");
    return false;
  }
  domain.name = name->as_string();
  const char* section = "domains[]";
  if (!read_fraction(json, "fraction", domain.fraction, section, error))
    return false;
  if (const Json* members = json.find("members")) {
    if (!members->is_array()) {
      set_error(error, "domains[].members must be an array of node ids");
      return false;
    }
    for (const Json& member : members->elements()) {
      if (!member.is_integer() || member.as_int() < 1 ||
          member.as_int() > static_cast<std::int64_t>(peers)) {
        set_error(error, "domains[].members must be consumer ids in [1, " +
                             std::to_string(peers) + "]");
        return false;
      }
      domain.members.push_back(static_cast<NodeId>(member.as_int()));
    }
  }
  if (domain.fraction > 0.0 && !domain.members.empty()) {
    set_error(error,
              "domains[] entries take \"fraction\" or \"members\", not both");
    return false;
  }
  if (domain.fraction <= 0.0 && domain.members.empty()) {
    set_error(error, "domains[] entries need \"fraction\" or \"members\"");
    return false;
  }
  const Json* windows = json.find("windows");
  if (windows == nullptr || !windows->is_array() || windows->size() == 0) {
    set_error(error, "domains[] entries need a non-empty \"windows\" array");
    return false;
  }
  for (const Json& entry : windows->elements()) {
    if (!entry.is_object() ||
        !check_keys(entry, "domains[].windows[]", {"start", "end", "fault"},
                    error))
      return false;
    fault::DomainWindow window;
    if (!read_number(entry, "start", window.start, "domains[].windows[]",
                     error) ||
        !read_number(entry, "end", window.end, "domains[].windows[]", error))
      return false;
    if (window.start < 0.0 || window.end < window.start) {
      set_error(error, "domains[].windows[] need 0 <= start <= end");
      return false;
    }
    const Json* fault_kind = entry.find("fault");
    const std::string kind =
        fault_kind == nullptr ? "crash" : fault_kind->as_string();
    if (kind == "crash") window.fault = fault::DomainFault::kCrash;
    else if (kind == "partition") window.fault = fault::DomainFault::kPartition;
    else {
      set_error(error,
                "domains[].windows[].fault must be \"crash\" or \"partition\"");
      return false;
    }
    domain.windows.push_back(window);
  }
  return true;
}

bool parse_adversary_section(const Json& json, Scenario& out,
                             std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"adversary\" must be an object");
    return false;
  }
  if (!check_keys(json, "adversary",
                  {"delay_liar_fraction", "fanout_liar_fraction",
                   "free_rider_fraction", "flapper_fraction",
                   "delay_understatement", "flap_period", "flap_duty", "salt"},
                  error))
    return false;
  fault::ByzantineSpec& spec = out.adversary;
  if (!read_fraction(json, "delay_liar_fraction", spec.delay_liar_fraction,
                     "adversary", error) ||
      !read_fraction(json, "fanout_liar_fraction", spec.fanout_liar_fraction,
                     "adversary", error) ||
      !read_fraction(json, "free_rider_fraction", spec.free_rider_fraction,
                     "adversary", error) ||
      !read_fraction(json, "flapper_fraction", spec.flapper_fraction,
                     "adversary", error))
    return false;
  if (spec.delay_liar_fraction + spec.fanout_liar_fraction +
          spec.free_rider_fraction + spec.flapper_fraction >
      1.0 + 1e-9) {
    set_error(error, "adversary fractions must sum to <= 1");
    return false;
  }
  if (!read_int(json, "delay_understatement", 1, kMaxCount,
                spec.delay_understatement, "adversary", error) ||
      !read_number(json, "flap_period", spec.flap_period, "adversary",
                   error) ||
      !read_fraction(json, "flap_duty", spec.flap_duty, "adversary", error))
    return false;
  if (spec.flap_period <= 0.0) {
    set_error(error, "adversary.flap_period must be > 0");
    return false;
  }
  return read_int(json, "salt", 0, kMaxInt64, spec.salt, "adversary", error);
}

bool parse_defense_section(const Json& json, Scenario& out,
                           std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"defense\" must be an object");
    return false;
  }
  if (!check_keys(json, "defense",
                  {"enabled", "probation_threshold", "quarantine_threshold",
                   "blacklist_threshold", "oracle_plausibility",
                   "delay_verification", "receipt_audit"},
                  error))
    return false;
  health::DefenseConfig& defense = out.defense;
  if (!read_bool(json, "enabled", defense.enabled, "defense", error) ||
      !read_number(json, "probation_threshold", defense.probation_threshold,
                   "defense", error) ||
      !read_number(json, "quarantine_threshold", defense.quarantine_threshold,
                   "defense", error) ||
      !read_number(json, "blacklist_threshold", defense.blacklist_threshold,
                   "defense", error) ||
      !read_bool(json, "oracle_plausibility", defense.oracle_plausibility,
                 "defense", error) ||
      !read_bool(json, "delay_verification", defense.delay_verification,
                 "defense", error) ||
      !read_bool(json, "receipt_audit", defense.receipt_audit, "defense",
                 error))
    return false;
  if (!(defense.probation_threshold <= defense.quarantine_threshold &&
        defense.quarantine_threshold <= defense.blacklist_threshold)) {
    set_error(error, "defense thresholds must be ordered probation <="
                     " quarantine <= blacklist");
    return false;
  }
  return true;
}

bool parse_feed_section(const Json& json, Scenario& out, std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"feed\" must be an object");
    return false;
  }
  if (!check_keys(json, "feed",
                  {"duration", "push_loss", "recovery", "recovery_period",
                   "publish_period"},
                  error))
    return false;
  ScenarioFeed& feed = out.feed;
  feed.enabled = true;
  if (!read_number(json, "duration", feed.duration, "feed", error) ||
      !read_fraction(json, "push_loss", feed.push_loss, "feed", error) ||
      !read_bool(json, "recovery", feed.recovery, "feed", error) ||
      !read_number(json, "recovery_period", feed.recovery_period, "feed",
                   error) ||
      !read_number(json, "publish_period", feed.publish_period, "feed", error))
    return false;
  if (feed.duration <= 0.0 || feed.recovery_period <= 0.0 ||
      feed.publish_period <= 0.0) {
    set_error(error, "feed durations and periods must be > 0");
    return false;
  }
  if (feed.push_loss >= 1.0) {
    set_error(error, "feed.push_loss must be < 1");
    return false;
  }
  return true;
}

bool parse_admission_subsection(const Json& json, AdmissionConfig& out,
                                std::string* error) {
  if (!json.is_object()) {
    set_error(error, "overload.admission must be an object");
    return false;
  }
  if (!check_keys(json, "overload.admission",
                  {"rate_limit", "window", "retry_after",
                   "breaker_trip_windows", "breaker_cooldown",
                   "breaker_close_windows", "serve_stale"},
                  error))
    return false;
  const char* section = "overload.admission";
  if (!read_number(json, "rate_limit", out.rate_limit, section, error) ||
      !read_number(json, "window", out.window, section, error) ||
      !read_number(json, "retry_after", out.retry_after, section, error) ||
      !read_number(json, "breaker_cooldown", out.breaker_cooldown, section,
                   error) ||
      !read_bool(json, "serve_stale", out.serve_stale, section, error))
    return false;
  if (out.rate_limit <= 0.0) {
    set_error(error, "overload.admission.rate_limit must be > 0");
    return false;
  }
  if (out.window <= 0.0 || out.retry_after <= 0.0 ||
      out.breaker_cooldown <= 0.0) {
    set_error(error, "overload.admission windows and waits must be > 0");
    return false;
  }
  return read_int(json, "breaker_trip_windows", 1, kMaxCount,
                  out.breaker_trip_windows, section, error) &&
         read_int(json, "breaker_close_windows", 1, kMaxCount,
                  out.breaker_close_windows, section, error);
}

bool parse_capacity_subsection(const Json& json, feed::CapacityConfig& out,
                               std::string* error) {
  if (!json.is_object()) {
    set_error(error, "overload.capacity must be an object");
    return false;
  }
  if (!check_keys(json, "overload.capacity",
                  {"relay_budget", "queue_limit", "shedding", "squeezes"},
                  error))
    return false;
  const char* section = "overload.capacity";
  if (!read_int(json, "relay_budget", 0, kMaxCount, out.relay_budget,
                section, error) ||
      !read_int(json, "queue_limit", 0, kMaxCount, out.queue_limit, section,
                error) ||
      !read_bool(json, "shedding", out.shedding, section, error))
    return false;
  if (const Json* squeezes = json.find("squeezes")) {
    if (!squeezes->is_array()) {
      set_error(error, "overload.capacity.squeezes must be an array");
      return false;
    }
    for (const Json& entry : squeezes->elements()) {
      if (!entry.is_object() ||
          !check_keys(entry, "overload.capacity.squeezes[]",
                      {"start", "end", "factor"}, error))
        return false;
      feed::CapacitySqueeze squeeze;
      if (!read_number(entry, "start", squeeze.start,
                       "overload.capacity.squeezes[]", error) ||
          !read_number(entry, "end", squeeze.end,
                       "overload.capacity.squeezes[]", error) ||
          !read_number(entry, "factor", squeeze.factor,
                       "overload.capacity.squeezes[]", error))
        return false;
      if (squeeze.start < 0.0 || squeeze.end < squeeze.start) {
        set_error(error,
                  "overload.capacity.squeezes[] need 0 <= start <= end");
        return false;
      }
      if (squeeze.factor <= 0.0 || squeeze.factor > 1.0) {
        set_error(error,
                  "overload.capacity.squeezes[].factor must be in (0, 1]");
        return false;
      }
      out.squeezes.push_back(squeeze);
    }
  }
  return true;
}

bool parse_overload_section(const Json& json, Scenario& out,
                            std::string* error) {
  if (!json.is_object()) {
    set_error(error, "\"overload\" must be an object");
    return false;
  }
  if (!check_keys(json, "overload", {"admission", "capacity", "join_storm"},
                  error))
    return false;
  if (const Json* admission = json.find("admission"))
    if (!parse_admission_subsection(*admission, out.overload.admission, error))
      return false;
  if (const Json* capacity = json.find("capacity"))
    if (!parse_capacity_subsection(*capacity, out.overload.capacity, error))
      return false;
  if (const Json* storm = json.find("join_storm")) {
    if (!storm->is_object() ||
        !check_keys(*storm, "overload.join_storm", {"at", "fraction"}, error))
      return false;
    // A join storm needs the parked crowd intact until it fires and a
    // clean absorption read afterwards; background churn would blur
    // both, so the two are mutually exclusive.
    if (out.has_churn) {
      set_error(error,
                "overload.join_storm and \"churn\" are mutually exclusive");
      return false;
    }
    out.overload.has_join_storm = true;
    if (!read_number(*storm, "at", out.overload.join_storm_at,
                     "overload.join_storm", error) ||
        !read_fraction(*storm, "fraction", out.overload.join_storm_fraction,
                       "overload.join_storm", error))
      return false;
    if (out.overload.join_storm_at < 1.0) {
      set_error(error, "overload.join_storm.at must be >= 1");
      return false;
    }
    if (out.overload.join_storm_fraction <= 0.0 ||
        out.overload.join_storm_fraction >= 1.0) {
      set_error(error,
                "overload.join_storm.fraction must be in (0, 1)");
      return false;
    }
  }
  if (out.overload.empty()) {
    set_error(error, "\"overload\" must declare admission, capacity, or"
                     " join_storm");
    return false;
  }
  return true;
}

}  // namespace

bool parse_scenario(const Json& json, Scenario& out, std::string* error) {
  out = Scenario{};
  if (!json.is_object()) {
    set_error(error, "scenario document must be a JSON object");
    return false;
  }
  if (!check_keys(json, "scenario",
                  {"schema", "name", "engine", "algorithm", "oracle", "seed",
                   "trials", "horizon", "workload", "churn", "faults",
                   "domains", "adversary", "defense", "feed", "overload"},
                  error))
    return false;
  const Json* schema = json.find("schema");
  if (schema == nullptr || schema->as_string() != "lagover.scenario.v1") {
    set_error(error, "\"schema\" must be \"lagover.scenario.v1\"");
    return false;
  }
  const Json* name = json.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    set_error(error, "scenario needs a non-empty \"name\"");
    return false;
  }
  out.name = name->as_string();
  if (const Json* engine = json.find("engine")) {
    if (engine->as_string() == "async") out.async = true;
    else if (engine->as_string() == "rounds") out.async = false;
    else {
      set_error(error, "\"engine\" must be \"async\" or \"rounds\"");
      return false;
    }
  }
  if (const Json* algorithm = json.find("algorithm")) {
    if (!parse_algorithm(algorithm->as_string(), out.algorithm)) {
      set_error(error,
                "\"algorithm\" must be greedy | hybrid | fanout_greedy");
      return false;
    }
  }
  if (const Json* oracle = json.find("oracle")) {
    if (!parse_oracle(oracle->as_string(), out.oracle)) {
      set_error(error, "\"oracle\" must be random | random_capacity |"
                       " random_delay_capacity | random_delay");
      return false;
    }
  }
  if (!read_int(json, "seed", 0, kMaxInt64, out.seed, "scenario", error) ||
      !read_int(json, "trials", 1, kMaxCount, out.trials, "scenario", error) ||
      !read_number(json, "horizon", out.horizon, "scenario", error))
    return false;
  if (out.horizon <= 0.0) {
    set_error(error, "\"horizon\" must be > 0");
    return false;
  }
  if (const Json* workload = json.find("workload"))
    if (!parse_workload_section(*workload, out, error)) return false;
  if (const Json* churn = json.find("churn"))
    if (!parse_churn_section(*churn, out, error)) return false;
  if (const Json* faults = json.find("faults")) {
    if (!faults->is_array()) {
      set_error(error, "\"faults\" must be an array of windows");
      return false;
    }
    for (const Json& entry : faults->elements()) {
      fault::FaultWindow window;
      if (!parse_fault_window(entry, window, error)) return false;
      out.fault_plan.add(window);
    }
  }
  if (const Json* domains = json.find("domains")) {
    if (!domains->is_array()) {
      set_error(error, "\"domains\" must be an array");
      return false;
    }
    for (const Json& entry : domains->elements()) {
      ScenarioDomain domain;
      if (!parse_domain(entry, out.workload_params.peers, domain, error))
        return false;
      out.domains.push_back(std::move(domain));
    }
  }
  if (const Json* adversary = json.find("adversary"))
    if (!parse_adversary_section(*adversary, out, error)) return false;
  if (const Json* defense = json.find("defense"))
    if (!parse_defense_section(*defense, out, error)) return false;
  if (const Json* feed = json.find("feed"))
    if (!parse_feed_section(*feed, out, error)) return false;
  if (const Json* overload = json.find("overload"))
    if (!parse_overload_section(*overload, out, error)) return false;
  return true;
}

bool load_scenario_file(const std::string& path, Scenario& out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  Json json;
  std::string parse_error;
  if (!Json::parse(text.str(), json, &parse_error)) {
    set_error(error, path + ": " + parse_error);
    return false;
  }
  if (!parse_scenario(json, out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::shared_ptr<fault::FailureDomains> build_domains(
    const Scenario& scenario, std::size_t node_count) {
  if (scenario.domains.empty()) return nullptr;
  auto domains = std::make_shared<fault::FailureDomains>();
  for (const ScenarioDomain& declared : scenario.domains) {
    fault::FailureDomain domain;
    domain.name = declared.name;
    domain.windows = declared.windows;
    domain.members =
        declared.fraction > 0.0
            ? fault::FailureDomains::hashed_members(
                  declared.name, node_count, declared.fraction, scenario.seed)
            : declared.members;
    domains->add(std::move(domain));
  }
  return domains;
}

std::shared_ptr<fault::FaultInjector> build_fault_injector(
    const Scenario& scenario, std::size_t node_count, std::uint64_t seed) {
  if (!scenario.has_faults()) return nullptr;
  auto injector =
      std::make_shared<fault::FaultInjector>(scenario.fault_plan, seed);
  injector->set_domains(build_domains(scenario, node_count));
  return injector;
}

std::shared_ptr<fault::AdversaryBook> build_adversary(
    const Scenario& scenario, std::size_t node_count) {
  if (scenario.adversary.empty()) return nullptr;
  return std::make_shared<fault::AdversaryBook>(scenario.adversary,
                                                node_count);
}

namespace {

/// Feed phase shared by both engine paths: lossy dissemination (with the
/// adversary's free-riders, when present) over the final overlay.
void run_feed_phase(const Scenario& scenario, const Overlay& overlay,
                    std::shared_ptr<const fault::AdversaryBook> adversary,
                    std::uint64_t seed, ScenarioTrialResult& result) {
  feed::LossyConfig config;
  config.base.seed = seed;
  config.base.source.seed = seed;
  config.base.source.publish_period = scenario.feed.publish_period;
  config.base.capacity = scenario.overload.capacity;
  config.push_loss = scenario.feed.push_loss;
  config.enable_recovery = scenario.feed.recovery;
  config.recovery_period = scenario.feed.recovery_period;
  config.adversary = std::move(adversary);
  const feed::LossyReport report = feed::run_lossy_dissemination(
      overlay, config, scenario.feed.duration);
  result.feed_delivery_ratio = report.delivery_ratio;
  const std::uint64_t applications =
      report.push_deliveries + report.recovered_deliveries;
  result.feed_late_fraction =
      applications == 0 ? 0.0
                        : static_cast<double>(report.late_deliveries) /
                              static_cast<double>(applications);
  result.feed_withheld_pushes = report.withheld_pushes;
  result.feed_shed_pushes = report.shed_pushes;
}

/// Consumers parked offline for the join storm: the tail of the id
/// space, so membership is deterministic and independent of the engine.
NodeId storm_crowd_size(const Scenario& scenario, std::size_t peers) {
  const auto crowd = static_cast<NodeId>(
      static_cast<double>(peers) * scenario.overload.join_storm_fraction);
  return std::min<NodeId>(std::max<NodeId>(crowd, 1),
                          static_cast<NodeId>(peers) - 1);
}

void collect_overload_counters(const NodeRuntime& runtime,
                               ScenarioTrialResult& result) {
  if (const AdmissionController* control = runtime.admission()) {
    result.oracle_admitted = control->admitted();
    result.oracle_rejected = control->rejected();
    result.oracle_breaker_trips = control->breaker_trips();
  }
  if (const AdmittedOracle* oracle = runtime.admitted_oracle())
    result.oracle_stale_served = oracle->stale_served();
  result.starvation_detaches = runtime.starvation_detaches();
}

void collect_defense_counters(const NodeRuntime& runtime,
                              ScenarioTrialResult& result) {
  const health::SuspicionBook& suspicion = runtime.suspicion();
  result.suspicion_reports = suspicion.reports();
  result.fenced_reports = suspicion.fenced_reports();
  result.probations = suspicion.probations();
  result.quarantines = suspicion.quarantines();
  result.blacklists = suspicion.blacklists();
  result.quarantine_detaches = runtime.quarantine_detaches();
  if (const fault::ByzantineOracle* oracle = runtime.byzantine_oracle()) {
    result.oracle_barred_skips = oracle->barred_skips();
    result.oracle_implausible_skips = oracle->implausible_skips();
  }
}

}  // namespace

ScenarioTrialResult run_scenario_trial(const Scenario& scenario, int trial) {
  const std::uint64_t seed =
      scenario.seed + static_cast<std::uint64_t>(trial) * 7919;
  WorkloadParams params = scenario.workload_params;
  params.seed = seed;
  Population population = generate_workload(scenario.workload, params);
  const std::size_t node_count = params.peers + 1;

  ScenarioTrialResult result;
  result.horizon = scenario.horizon;
  auto adversary = build_adversary(scenario, node_count);
  auto faults = build_fault_injector(scenario, node_count, seed ^ 0xFA17);
  RuntimeConfig shared;
  shared.algorithm = scenario.algorithm;
  shared.oracle = scenario.oracle;
  shared.seed = seed;
  shared.faults = faults;
  shared.adversary = adversary;
  shared.defense = scenario.defense;
  shared.admission = scenario.overload.admission;
  const auto last = static_cast<NodeId>(params.peers);
  // Join storm: the tail of the id space waits offline until the flash
  // crowd joins at once.
  NodeId first_parked = last + 1;
  if (scenario.overload.has_join_storm) {
    const NodeId crowd = storm_crowd_size(scenario, params.peers);
    result.storm_joiners = crowd;
    first_parked -= crowd;
  }
  const auto bernoulli = [&scenario] {
    return std::make_unique<BernoulliChurn>(scenario.churn_leave,
                                            scenario.churn_join);
  };
  const auto flash_crowd = [&scenario] {
    return std::make_unique<FlashCrowdChurn>(
        static_cast<Round>(scenario.overload.join_storm_at));
  };

  std::optional<AsyncEngine> async_engine;
  std::optional<Engine> sync_engine;
  const NodeRuntime* runtime = nullptr;
  if (scenario.async) {
    AsyncConfig config;
    static_cast<RuntimeConfig&>(config) = shared;
    AsyncEngine& engine = async_engine.emplace(std::move(population), config);
    if (scenario.has_churn) engine.set_churn(bernoulli());
    if (scenario.overload.has_join_storm) {
      for (NodeId id = first_parked; id <= last; ++id) engine.park_offline(id);
      engine.set_churn(flash_crowd());
    }
    result.satisfied_fraction = engine.run_for(scenario.horizon);
    runtime = &engine.runtime();
  } else {
    EngineConfig config;
    static_cast<RuntimeConfig&>(config) = shared;
    Engine& engine = sync_engine.emplace(std::move(population), config);
    if (scenario.has_churn) engine.set_churn(bernoulli());
    if (scenario.overload.has_join_storm) {
      for (NodeId id = first_parked; id <= last; ++id)
        engine.overlay().set_offline(id);
      engine.set_churn(flash_crowd());
    }
    const Round rounds =
        std::max<Round>(1, static_cast<Round>(std::ceil(scenario.horizon)));
    RoundStats stats;
    for (Round r = 0; r < rounds; ++r) stats = engine.run_round();
    result.satisfied_fraction = stats.satisfied_fraction;
    runtime = &engine.runtime();
  }
  result.converged = runtime->overlay().all_satisfied();
  result.audit_violations = runtime->audit_violations();
  collect_defense_counters(*runtime, result);
  collect_overload_counters(*runtime, result);
  if (faults != nullptr)
    result.domain_crashes = faults->stats().domain_crashes;
  if (scenario.feed.enabled)
    run_feed_phase(scenario, runtime->overlay(), adversary, seed, result);
  return result;
}

}  // namespace lagover::workload
