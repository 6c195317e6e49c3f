#include "workload/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
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

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Upper bound of every count-like key (peers, latencies, fanouts,
/// trials, windows, ticks) and of every time value (the horizon, window
/// bounds, durations, downtime, staleness, delay amount, the join
/// storm's instant, the ladder thresholds): far above any run the
/// benches sweep, small enough that no derived int arithmetic overflows
/// and that every cast of a time to a round count is defined.
constexpr double kMaxCount = 1 << 20;
/// Floor of every period, wait and rate limit, so the clock advances.
constexpr double kMinPeriod = 1.0 / (1 << 20);
/// Ceiling of seeds and salts: every JSON integer that fits an int64.
constexpr double kMaxInt64 =
    static_cast<double>(std::numeric_limits<std::int64_t>::max());
/// Closed stand-ins for the open bounds "> 0" and "< 1".
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
constexpr double kBelowOne = 1.0 - std::numeric_limits<double>::epsilon() / 2;

enum class Kind { kNumber, kInteger, kBool, kString, kEnum, kSection };

struct Key;
/// One section's keys, the only list of them: the reader takes each key
/// from it and rejects any key it does not name.
using Table = std::vector<Key>;

/// One key of a section: its name, JSON kind, closed range (numbers and
/// integers), whether it must appear, and how it reaches its field.
struct Key {
  const char* name;
  Kind kind;
  double min = 0.0;
  double max = 0.0;
  bool required = false;
  bool array = false;  ///< the value is a JSON array of this kind
  std::vector<std::string> names = {};  ///< kEnum: the accepted values
  /// Stores a checked scalar; an enum stores its index in `names`.
  std::function<void(const Json&, std::size_t)> write = {};
  /// kSection: the section's keys, bound to the struct it fills; called
  /// once per section (per element of an array), only when present.
  std::function<Table()> keys = {};
};

Key number(const char* name, double& field, double min, double max,
           bool required = false) {
  return {.name = name, .kind = Kind::kNumber, .min = min, .max = max,
          .required = required,
          .write = [&field](const Json& value, std::size_t) {
            field = value.as_number();
          }};
}

/// The range is checked before the narrowing cast.
template <typename Int>
Key integer(const char* name, Int& field, double min, double max) {
  return {.name = name, .kind = Kind::kInteger, .min = min, .max = max,
          .write = [&field](const Json& value, std::size_t) {
            field = static_cast<Int>(value.as_int());
          }};
}

Key flag(const char* name, bool& field) {
  return {.name = name, .kind = Kind::kBool,
          .write = [&field](const Json& value, std::size_t) {
            field = value.as_bool();
          }};
}

/// A required, non-empty string.
Key text(const char* name, std::string& field) {
  return {.name = name, .kind = Kind::kString, .required = true,
          .write = [&field](const Json& value, std::size_t) {
            field = value.as_string();
          }};
}

/// `names` in enumerator order: a value's index is its enumerator.
template <typename Enum>
Key choice(const char* name, Enum& field, std::vector<std::string> names) {
  return {.name = name, .kind = Kind::kEnum, .names = std::move(names),
          .write = [&field](const Json&, std::size_t index) {
            field = static_cast<Enum>(index);
          }};
}

Key section(const char* name, std::function<Table()> keys,
            bool array = false) {
  return {.name = name, .kind = Kind::kSection, .array = array,
          .keys = std::move(keys)};
}

/// A window section: its own keys plus the required bounds.
Table window(double& start, double& end, Table keys) {
  keys.push_back(number("start", start, 0.0, kMaxCount, /*required=*/true));
  keys.push_back(number("end", end, 0.0, kMaxCount, /*required=*/true));
  return keys;
}

Table workload_keys(Scenario& out) {
  WorkloadParams& params = out.workload_params;
  return {choice("kind", out.workload, {"tf1", "rand", "bi_corr", "bi_uncorr"}),
          integer("peers", params.peers, 2, kMaxCount),
          integer("max_latency", params.max_latency, 1, kMaxCount),
          // 0 = automatic.
          integer("source_fanout", params.source_fanout, 0, kMaxCount),
          integer("tf1_fanout", params.tf1_fanout, 1, kMaxCount),
          integer("rand_fanout_max", params.rand_fanout_max, 0, kMaxCount)};
}

Table fault_keys(fault::FaultWindow& entry) {
  fault::FaultSpec& spec = entry.spec;
  return window(
      entry.start, entry.end,
      {number("drop_probability", spec.drop_probability, 0.0, 1.0),
       number("delay_probability", spec.delay_probability, 0.0, 1.0),
       number("delay_amount", spec.delay_amount, 0.0, kMaxCount),
       number("duplicate_probability", spec.duplicate_probability, 0.0, 1.0),
       flag("oracle_outage", spec.oracle_outage),
       number("oracle_staleness", spec.oracle_staleness, 0.0, kMaxCount),
       number("crash_probability", spec.crash_probability, 0.0, 1.0),
       number("crash_downtime", spec.crash_downtime, 0.0, kMaxCount),
       number("partition_fraction", spec.partition_fraction, 0.0,
              kBelowOne)});
}

Table domain_keys(ScenarioDomain& domain) {
  return {text("name", domain.name),
          number("fraction", domain.fraction, 0.0, 1.0),
          {.name = "members", .kind = Kind::kInteger, .min = 1,
           .max = kMaxCount, .array = true,
           .write =
               [&domain](const Json& value, std::size_t) {
                 domain.members.push_back(
                     static_cast<NodeId>(value.as_int()));
               }},
          section(
              "windows",
              [&domain] {
                fault::DomainWindow& entry = domain.windows.emplace_back();
                return window(entry.start, entry.end,
                              {choice("fault", entry.fault,
                                      {"crash", "partition"})});
              },
              /*array=*/true)};
}

Table adversary_keys(fault::ByzantineSpec& spec) {
  return {number("delay_liar_fraction", spec.delay_liar_fraction, 0.0, 1.0),
          number("fanout_liar_fraction", spec.fanout_liar_fraction, 0.0, 1.0),
          number("free_rider_fraction", spec.free_rider_fraction, 0.0, 1.0),
          number("flapper_fraction", spec.flapper_fraction, 0.0, 1.0),
          integer("delay_understatement", spec.delay_understatement, 1,
                  kMaxCount),
          number("flap_period", spec.flap_period, kMinPeriod, kMaxCount),
          number("flap_duty", spec.flap_duty, 0.0, 1.0),
          integer("salt", spec.salt, 0, kMaxInt64)};
}

Table defense_keys(health::DefenseConfig& defense) {
  return {flag("enabled", defense.enabled),
          number("probation_threshold", defense.probation_threshold, 0.0,
                 kMaxCount),
          number("quarantine_threshold", defense.quarantine_threshold, 0.0,
                 kMaxCount),
          number("blacklist_threshold", defense.blacklist_threshold, 0.0,
                 kMaxCount),
          flag("oracle_plausibility", defense.oracle_plausibility),
          flag("delay_verification", defense.delay_verification),
          flag("receipt_audit", defense.receipt_audit)};
}

Table feed_keys(ScenarioFeed& feed) {
  return {number("duration", feed.duration, kMinPeriod, kMaxCount),
          number("push_loss", feed.push_loss, 0.0, kBelowOne),
          flag("recovery", feed.recovery),
          number("recovery_period", feed.recovery_period, kMinPeriod,
                 kMaxCount),
          number("publish_period", feed.publish_period, kMinPeriod,
                 kMaxCount)};
}

Table admission_keys(AdmissionConfig& admission) {
  return {number("rate_limit", admission.rate_limit, kMinPeriod, kMaxCount,
                 /*required=*/true),
          number("window", admission.window, kMinPeriod, kMaxCount),
          number("retry_after", admission.retry_after, kMinPeriod, kMaxCount),
          integer("breaker_trip_windows", admission.breaker_trip_windows, 1,
                  kMaxCount),
          number("breaker_cooldown", admission.breaker_cooldown, kMinPeriod,
                 kMaxCount),
          integer("breaker_close_windows", admission.breaker_close_windows,
                  1, kMaxCount),
          flag("serve_stale", admission.serve_stale)};
}

Table capacity_keys(feed::CapacityConfig& capacity) {
  return {integer("relay_budget", capacity.relay_budget, 0, kMaxCount),
          integer("queue_limit", capacity.queue_limit, 0, kMaxCount),
          flag("shedding", capacity.shedding),
          section(
              "squeezes",
              [&capacity] {
                feed::CapacitySqueeze& entry =
                    capacity.squeezes.emplace_back();
                return window(entry.start, entry.end,
                              {number("factor", entry.factor, kAboveZero,
                                      1.0)});
              },
              /*array=*/true)};
}

/// What a document declares that `Scenario` does not keep: its fault
/// windows, which go into the plan only once their bounds are ordered,
/// and whether it has an overload and a capacity section.
struct Declared {
  std::vector<fault::FaultWindow> faults;
  bool overload = false;
  bool capacity = false;
};

Table overload_keys(ScenarioOverload& overload, Declared& declared) {
  return {section("admission",
                  [&overload] { return admission_keys(overload.admission); }),
          section("capacity",
                  [&overload, &declared] {
                    declared.capacity = true;
                    return capacity_keys(overload.capacity);
                  }),
          section("join_storm", [&overload] {
            overload.has_join_storm = true;
            return Table{number("at", overload.join_storm_at, 1.0, kMaxCount,
                                /*required=*/true),
                         number("fraction", overload.join_storm_fraction,
                                kAboveZero, kBelowOne)};
          })};
}

Table scenario_keys(Scenario& out, Declared& declared) {
  return {
      {.name = "schema", .kind = Kind::kEnum, .required = true,
       .names = {"lagover.scenario.v1"}},
      text("name", out.name),
      choice("engine", out.async, {"rounds", "async"}),
      choice("algorithm", out.algorithm, {"greedy", "hybrid", "fanout_greedy"}),
      choice("oracle", out.oracle,
             {"random", "random_capacity", "random_delay_capacity",
              "random_delay"}),
      integer("seed", out.seed, 0, kMaxInt64),
      integer("trials", out.trials, 1, kMaxCount),
      number("horizon", out.horizon, kMinPeriod, kMaxCount),
      section("workload", [&out] { return workload_keys(out); }),
      section("churn",
              [&out] {
                out.has_churn = true;
                return Table{number("leave_probability", out.churn_leave, 0.0,
                                    1.0),
                             number("rejoin_probability", out.churn_join,
                                    0.0, 1.0)};
              }),
      section("faults",
              [&declared] {
                return fault_keys(declared.faults.emplace_back());
              },
              /*array=*/true),
      section("domains",
              [&out] { return domain_keys(out.domains.emplace_back()); },
              /*array=*/true),
      section("adversary", [&out] { return adversary_keys(out.adversary); }),
      section("defense", [&out] { return defense_keys(out.defense); }),
      section("feed",
              [&out] {
                out.feed.enabled = true;
                return feed_keys(out.feed);
              }),
      section("overload", [&out, &declared] {
        declared.overload = true;
        return overload_keys(out.overload, declared);
      })};
}

/// A key's range as error messages print it, with "(0" and "1)" for
/// the open bounds kAboveZero and kBelowOne stand in for.
std::string range(const Key& key) {
  const auto text = [](double value) -> std::string {
    if (value >= kMaxInt64)
      return std::to_string(std::numeric_limits<std::int64_t>::max());
    char digits[32];
    return {digits, std::to_chars(digits, digits + sizeof digits, value).ptr};
  };
  std::string out(key.min == kAboveZero ? "(0" : "[");
  if (key.min != kAboveZero) out += text(key.min);
  out += ", ";
  out += key.max == kBelowOne ? std::string("1)") : text(key.max) + "]";
  return out;
}

bool read(const Json& json, const Table& table, const std::string& path,
          std::string* error);

/// Checks one value against its key (NaN fails every range) and
/// stores it.
bool read_value(const Json& value, const Key& key, const std::string& where,
                std::string* error) {
  std::size_t index = 0;
  switch (key.kind) {
    case Kind::kSection:
      return read(value, key.keys(), where, error);
    case Kind::kBool:
      if (!value.is_bool()) return fail(error, where + " must be a boolean");
      break;
    case Kind::kString:
      if (value.as_string().empty())
        return fail(error, where + " must be a non-empty string");
      break;
    case Kind::kEnum: {
      const auto match =
          std::find(key.names.begin(), key.names.end(), value.as_string());
      if (!value.is_string() || match == key.names.end()) {
        std::string names;
        for (const std::string& name : key.names)
          names += (names.empty() ? "\"" : " | \"") + name + "\"";
        return fail(error, where + " must be " + names);
      }
      index = static_cast<std::size_t>(match - key.names.begin());
      break;
    }
    case Kind::kNumber:
    case Kind::kInteger: {
      const bool integer = key.kind == Kind::kInteger;
      const double x = value.as_number(std::nan(""));
      if (!(integer ? value.is_integer() : value.is_number()) ||
          !(x >= key.min && x <= key.max))
        return fail(error, where + " must be " +
                               (integer ? "an integer" : "a number") +
                               " in " + range(key));
      break;
    }
  }
  if (key.write) key.write(value, index);
  return true;
}

/// Reads the object `json` through `table`: each member must be a key
/// of the table, of its kind and within its range, and each required
/// key must appear. `path` names the section in errors.
bool read(const Json& json, const Table& table, const std::string& path,
          std::string* error) {
  if (!json.is_object()) return fail(error, path + " must be an object");
  for (const auto& [name, value] : json.members()) {
    std::string where = path + ".";
    where += name;
    const auto key = std::find_if(table.begin(), table.end(),
                                  [&](const Key& k) { return name == k.name; });
    if (key == table.end())
      return fail(error, "unknown key \"" + where + "\"");
    if (!key->array) {
      if (!read_value(value, *key, where, error)) return false;
      continue;
    }
    if (!value.is_array()) return fail(error, where + " must be an array");
    for (const Json& element : value.elements())
      if (!read_value(element, *key, where + "[]", error)) return false;
  }
  for (const Key& key : table)
    if (key.required && json.find(key.name) == nullptr)
      return fail(error, path + " needs \"" + key.name + "\"");
  return true;
}

template <typename Window>
bool ordered(const std::vector<Window>& windows) {
  return std::all_of(windows.begin(), windows.end(),
                     [](const Window& w) { return w.start <= w.end; });
}

/// The rules that tie keys together, checked once every key is read, so
/// the order of sections in a document never matters.
bool check_rules(const Scenario& scenario, const Declared& declared,
                 std::string* error) {
  if (!ordered(declared.faults))
    return fail(error, "scenario.faults[] need start <= end");
  const std::size_t peers = scenario.workload_params.peers;
  for (const ScenarioDomain& domain : scenario.domains) {
    if ((domain.fraction > 0.0) == !domain.members.empty())
      return fail(error, "scenario.domains[] entries take \"fraction\" or "
                         "\"members\", exactly one");
    for (const NodeId member : domain.members)
      if (member > peers)
        return fail(error,
                    "scenario.domains[].members must be consumer ids in "
                    "[1, " + std::to_string(peers) + "]");
    if (domain.windows.empty())
      return fail(error, "scenario.domains[] entries need \"windows\"");
    if (!ordered(domain.windows))
      return fail(error, "scenario.domains[].windows[] need start <= end");
  }
  const fault::ByzantineSpec& adversary = scenario.adversary;
  if (adversary.delay_liar_fraction + adversary.fanout_liar_fraction +
          adversary.free_rider_fraction + adversary.flapper_fraction >
      1.0 + 1e-9)
    return fail(error, "scenario.adversary fractions must sum to <= 1");
  const health::DefenseConfig& defense = scenario.defense;
  if (!(defense.probation_threshold <= defense.quarantine_threshold &&
        defense.quarantine_threshold <= defense.blacklist_threshold))
    return fail(error, "scenario.defense thresholds must be ordered "
                       "probation <= quarantine <= blacklist");
  if (declared.overload && scenario.overload.empty())
    return fail(error, "scenario.overload must declare admission, capacity, "
                       "or join_storm");
  // A join storm needs the parked crowd intact until it fires and a
  // clean absorption read afterwards; background churn would blur both.
  if (scenario.overload.has_join_storm && scenario.has_churn)
    return fail(error, "scenario.overload.join_storm and scenario.churn are "
                       "mutually exclusive");
  // The feed phase is the only consumer of capacity, on its own clock
  // from 0 to feed.duration: a setting outside it never takes effect.
  const feed::CapacityConfig& capacity = scenario.overload.capacity;
  if (declared.capacity && !scenario.feed.enabled)
    return fail(error, "scenario.overload.capacity needs a feed section");
  if (!ordered(capacity.squeezes))
    return fail(error, "scenario.overload.capacity.squeezes[] need start <= "
                       "end");
  for (const feed::CapacitySqueeze& squeeze : capacity.squeezes)
    if (squeeze.start >= scenario.feed.duration)
      return fail(error, "scenario.overload.capacity.squeezes[].start must "
                         "fall before feed.duration");
  // Each key is bounded, but a long span over a short period still asks
  // for 2^40 events: bound every such ratio by kMaxCount as well.
  const ScenarioFeed& feed = scenario.feed;
  if (!(feed.duration / feed.publish_period <= kMaxCount))
    return fail(error, "scenario.feed.duration / feed.publish_period must be "
                       "at most 2^20");
  if (!(feed.duration / feed.recovery_period <= kMaxCount))
    return fail(error, "scenario.feed.duration / feed.recovery_period must "
                       "be at most 2^20");
  if (adversary.flapper_fraction > 0.0 &&
      !(scenario.horizon / adversary.flap_period <= kMaxCount))
    return fail(error, "scenario.horizon / adversary.flap_period must be at "
                       "most 2^20");
  return true;
}

}  // namespace

bool parse_scenario(const Json& json, Scenario& out, std::string* error) {
  out = Scenario{};
  Declared declared;
  if (!read(json, scenario_keys(out, declared), "scenario", error) ||
      !check_rules(out, declared, error))
    return false;
  for (const fault::FaultWindow& entry : declared.faults)
    out.fault_plan.add(entry);
  return true;
}

bool load_scenario_file(const std::string& path, Scenario& out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    return fail(error, "cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  Json json;
  std::string parse_error;
  if (!Json::parse(text.str(), json, &parse_error)) {
    return fail(error, path + ": " + parse_error);
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
  result.oracle_stale_served = runtime.stale_served();
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
