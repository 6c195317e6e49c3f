// Scheduler conformance suite: the fault, defense, admission and health
// cases every construction scheduler must pass. Both engines drive the
// same NodeRuntime, so each case is written once and runs against the
// round-based Engine and the event-driven AsyncEngine through a thin
// adapter; a span of 1.0 is one round for the former and one simulated
// time unit for the latter.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "fault/byzantine.hpp"
#include "fault/domains.hpp"
#include "fault/fault_injector.hpp"
#include "health/health.hpp"
#include "metrics/failover.hpp"
#include "metrics/recovery.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using fault::AdversaryBook;
using fault::AdversaryClass;
using fault::ByzantineSpec;
using fault::FailureDomains;
using fault::FaultInjector;
using fault::FaultPlan;

/// Called after every round / time unit with the current time.
using Sample = std::function<void(double)>;

struct SyncScheduler {
  using Engine = lagover::Engine;
  using Config = EngineConfig;
  static constexpr const char* kName = "Sync";

  static int& timeout(Config& config) { return config.timeout_rounds; }
  /// Churn departures are announced after the node left.
  static constexpr bool kAnnouncesLeaveFirst = false;
  /// Takes a node offline before the first round.
  static void park(Engine& engine, NodeId id) {
    engine.overlay().set_offline(id);
  }
  /// The converged round, as a time.
  static std::optional<double> converge(Engine& engine, double horizon) {
    const auto round = engine.run_until_converged(static_cast<Round>(horizon));
    if (!round.has_value()) return std::nullopt;
    return static_cast<double>(*round);
  }
  /// Runs `span` rounds and returns the final satisfied fraction.
  static double run(Engine& engine, double span, const Sample& sample = {}) {
    for (Round r = 0; r < static_cast<Round>(span); ++r) {
      engine.run_round();
      if (sample) sample(static_cast<double>(engine.round()));
    }
    return engine.overlay().satisfied_fraction();
  }
};

struct AsyncScheduler {
  using Engine = AsyncEngine;
  using Config = AsyncConfig;
  static constexpr const char* kName = "Async";

  static int& timeout(Config& config) { return config.timeout_steps; }
  /// Churn departures are announced while the node is still there.
  static constexpr bool kAnnouncesLeaveFirst = true;
  static void park(Engine& engine, NodeId id) { engine.park_offline(id); }
  static std::optional<double> converge(Engine& engine, double horizon) {
    return engine.run_until_converged(horizon);
  }
  /// Runs `span` time units and returns the final satisfied fraction.
  static double run(Engine& engine, double span, const Sample& sample = {}) {
    if (sample) engine.set_sampler(1.0, sample);
    return engine.run_for(span);
  }
};

struct SchedulerNames {
  template <typename Scheduler>
  static std::string GetName(int /*index*/) {
    return Scheduler::kName;
  }
};

using Schedulers = ::testing::Types<SyncScheduler, AsyncScheduler>;

template <typename Scheduler>
class SchedulerConformance : public ::testing::Test {};
TYPED_TEST_SUITE(SchedulerConformance, Schedulers, SchedulerNames);

template <typename Scheduler>
class SchedulerDeathTest : public ::testing::Test {};
TYPED_TEST_SUITE(SchedulerDeathTest, Schedulers, SchedulerNames);

Population workload(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

std::vector<NodeId> parents_of(const Overlay& overlay) {
  std::vector<NodeId> parents;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    parents.push_back(overlay.has_parent(id) ? overlay.parent(id) : kNoNode);
  return parents;
}

void expect_fully_healthy(const Overlay& overlay) {
  EXPECT_TRUE(overlay.all_satisfied());
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (!overlay.online(id)) continue;
    EXPECT_TRUE(overlay.has_parent(id)) << "permanent orphan " << id;
    EXPECT_LE(overlay.delay_at(id), overlay.latency_of(id))
        << "constraint violation at " << id;
  }
  overlay.audit();
}

/// The acceptance-criteria plan: 20% message drop, a 10%-population
/// partition, and a full Oracle outage. The outage overlaps the
/// partition tail so partition-orphaned nodes hit a dead Oracle and
/// must lean on their partner caches / backoff until it lifts.
FaultPlan acceptance_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::drop(30.0, 80.0, 0.2))
      .add(FaultPlan::partition(100.0, 150.0, 0.1))
      .add(FaultPlan::oracle_outage(140.0, 190.0));
  return plan;
}

// --- shared config validation ------------------------------------------

TYPED_TEST(SchedulerDeathTest, RejectsInvalidSharedConfig) {
  using S = TypeParam;
  const auto build = [](const typename S::Config& config) {
    typename S::Engine engine(workload(10, 1), config);
  };
  typename S::Config no_timeout;
  S::timeout(no_timeout) = 0;
  EXPECT_DEATH(build(no_timeout), "precondition");
  typename S::Config negative_patience;
  negative_patience.maintenance_patience = -1;
  EXPECT_DEATH(build(negative_patience), "precondition");
}

// --- inert layers are byte-identical -----------------------------------

TYPED_TEST(SchedulerConformance, EmptyAdversaryAndDomainsAreByteIdentical) {
  using S = TypeParam;
  // An installed-but-empty adversary book, an empty fault plan with an
  // empty domain schedule, and an enabled-but-partnerless defense must
  // all normalize away: same seed, same tree, byte for byte — at the
  // convergence instant and through a further stretch in which the
  // wired engine's fault layer keeps its nodes polling.
  for (std::uint64_t seed : {7u, 11u}) {
    typename S::Config plain;
    plain.seed = seed;
    typename S::Engine baseline(workload(40, seed), plain);
    const auto base = S::converge(baseline, 400.0);

    typename S::Config wired = plain;
    wired.adversary = std::make_shared<AdversaryBook>(ByzantineSpec{}, 41);
    wired.defense.enabled = true;
    auto injector = std::make_shared<FaultInjector>(FaultPlan{});
    injector->set_domains(std::make_shared<FailureDomains>());
    wired.faults = injector;
    typename S::Engine guarded(workload(40, seed), wired);
    const auto wired_converged = S::converge(guarded, 400.0);

    EXPECT_EQ(base, wired_converged) << "seed " << seed;
    EXPECT_DOUBLE_EQ(baseline.overlay().satisfied_fraction(),
                     guarded.overlay().satisfied_fraction());
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(guarded.overlay()))
        << "seed " << seed;

    const double base_fraction = S::run(baseline, 150.0);
    const double wired_fraction = S::run(guarded, 150.0);
    EXPECT_DOUBLE_EQ(base_fraction, wired_fraction) << "seed " << seed;
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(guarded.overlay()))
        << "seed " << seed;
    const NodeRuntime& runtime = guarded.runtime();
    EXPECT_EQ(runtime.byzantine_oracle(), nullptr);
    EXPECT_EQ(runtime.suspicion().reports(), 0u);
    EXPECT_EQ(runtime.quarantine_detaches(), 0u);
  }
}

TYPED_TEST(SchedulerConformance, PermissiveAdmissionIsByteIdentical) {
  using S = TypeParam;
  for (std::uint64_t seed : {7u, 11u}) {
    typename S::Config plain;
    plain.seed = seed;
    typename S::Engine baseline(workload(30, seed), plain);
    const auto base = S::converge(baseline, 400.0);

    // A limit no real query stream reaches: every query admits and
    // passes straight through, so the run must be byte-identical anyway.
    typename S::Config wired = plain;
    wired.admission.rate_limit = 1e9;
    typename S::Engine admitted(workload(30, seed), wired);
    const auto wired_converged = S::converge(admitted, 400.0);

    EXPECT_EQ(base, wired_converged) << "seed " << seed;
    EXPECT_DOUBLE_EQ(baseline.overlay().satisfied_fraction(),
                     admitted.overlay().satisfied_fraction());
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(admitted.overlay()))
        << "seed " << seed;

    const double base_fraction = S::run(baseline, 120.0);
    const double wired_fraction = S::run(admitted, 120.0);
    EXPECT_DOUBLE_EQ(base_fraction, wired_fraction) << "seed " << seed;
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(admitted.overlay()))
        << "seed " << seed;
    const AdmissionController* control = admitted.runtime().admission();
    ASSERT_NE(control, nullptr);
    EXPECT_EQ(control->rejected(), 0u);
    EXPECT_EQ(control->stale_verdicts(), 0u);
  }
}

/// (workload seed, engine seed) pairs for the empty-plan identity cases.
constexpr std::pair<std::uint64_t, std::uint64_t> kEmptyPlanSeeds[] = {
    {21, 77}, {22, 78}};

TYPED_TEST(SchedulerConformance, EmptyPlanIsByteIdentical) {
  using S = TypeParam;
  for (const auto& [population_seed, seed] : kEmptyPlanSeeds) {
    const Population population = workload(50, population_seed);
    typename S::Config plain;
    plain.seed = seed;
    typename S::Engine baseline(population, plain);
    const auto base = S::converge(baseline, 3000.0);

    typename S::Config with_empty_plan = plain;
    with_empty_plan.faults = std::make_shared<FaultInjector>(FaultPlan{});
    typename S::Engine chaos(population, with_empty_plan);
    const auto chaos_converged = S::converge(chaos, 3000.0);

    ASSERT_TRUE(base.has_value()) << "seed " << seed;
    ASSERT_TRUE(chaos_converged.has_value()) << "seed " << seed;
    // Identical convergence instant AND identical final structure: the
    // fault layer consumed no scheduler randomness and changed no
    // decision.
    EXPECT_DOUBLE_EQ(*base, *chaos_converged) << "seed " << seed;
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(chaos.overlay()))
        << "seed " << seed;
  }
}

TYPED_TEST(SchedulerConformance, EmptyPlanWithHealthLayerIsByteIdentical) {
  using S = TypeParam;
  for (const auto& [population_seed, seed] : kEmptyPlanSeeds) {
    const Population population = workload(50, population_seed);
    typename S::Config plain;
    plain.seed = seed;
    typename S::Engine baseline(population, plain);
    const auto base = S::converge(baseline, 3000.0);

    // Health layer fully enabled — phi-accrual detection AND the
    // failover ladder — but an empty plan: no crash ever fires, so the
    // detector never suspects, the ladder never arms, the epoch book
    // never bumps. The run must stay byte-identical to the
    // no-fault-layer baseline.
    typename S::Config with_health = plain;
    with_health.faults = std::make_shared<FaultInjector>(FaultPlan{});
    with_health.health.detection = health::DetectionPolicy::kPhiAccrual;
    with_health.health.failover = health::FailoverPolicy::kLadder;
    typename S::Engine healthy(population, with_health);
    const auto healthy_converged = S::converge(healthy, 3000.0);

    ASSERT_TRUE(base.has_value()) << "seed " << seed;
    ASSERT_TRUE(healthy_converged.has_value()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(*base, *healthy_converged) << "seed " << seed;
    EXPECT_EQ(parents_of(baseline.overlay()), parents_of(healthy.overlay()))
        << "seed " << seed;
    // And the health layer itself stayed inert.
    const NodeRuntime& runtime = healthy.runtime();
    EXPECT_EQ(runtime.epochs().bumps(), 0u);
    EXPECT_EQ(runtime.epochs().fences(), 0u);
    EXPECT_EQ(runtime.failover_attaches(), 0u);
    EXPECT_EQ(runtime.protocol().counters().stale_epoch_rejections, 0u);
  }
}

// --- fault recovery ----------------------------------------------------

/// Engine, fault-injector and workload seeds of one faulted run.
struct RunSeeds {
  std::uint64_t engine;
  std::uint64_t faults;
  std::uint64_t population;
};

TYPED_TEST(SchedulerConformance, ReconvergeAfterAcceptancePlan) {
  using S = TypeParam;
  // On the second seed set the few nodes still orphaned when the Oracle
  // outage opens re-attach without asking the Oracle, so the outage may
  // see no query; the first set is the one that must meet it.
  const RunSeeds runs[] = {{33, 9, 13}, {35, 11, 15}};
  for (const RunSeeds& seeds : runs) {
    SCOPED_TRACE("seed " + std::to_string(seeds.engine));
    for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
      typename S::Config config;
      config.algorithm = algorithm;
      config.seed = seeds.engine;
      auto faults =
          std::make_shared<FaultInjector>(acceptance_plan(), seeds.faults);
      config.faults = faults;
      typename S::Engine engine(workload(60, seeds.population), config);
      RecoveryRecorder recorder(engine.overlay(), acceptance_plan());
      S::run(engine, 600.0, [&](double t) { recorder.sample(t); });
      expect_fully_healthy(engine.overlay());
      // The recorder agrees, and pins down when recovery happened.
      EXPECT_TRUE(recorder.healthy_at_end()) << to_string(algorithm);
      const double ttr = recorder.final_time_to_reconverge();
      EXPECT_GE(ttr, 0.0) << to_string(algorithm);
      EXPECT_LE(ttr, 390.0) << to_string(algorithm);
      // The plan actually did damage (the windows were not no-ops).
      EXPECT_GT(faults->stats().messages_dropped, 0u) << to_string(algorithm);
      if (&seeds == &runs[0]) {
        EXPECT_GT(faults->stats().oracle_outage_queries, 0u)
            << to_string(algorithm);
      }
    }
  }
}

TYPED_TEST(SchedulerConformance, CrashesOrphanSubtreesAndHeal) {
  using S = TypeParam;
  typename S::Config config;
  config.seed = 41;
  FaultPlan plan;
  plan.add(FaultPlan::crashes(20.0, 60.0, /*probability=*/0.05,
                              /*downtime=*/8.0));
  auto faults = std::make_shared<FaultInjector>(plan, 17);
  config.faults = faults;
  typename S::Engine engine(workload(60, 19), config);
  S::run(engine, 400.0);
  EXPECT_GT(faults->stats().crashes, 0u);
  // Everyone is back online and satisfied well after the crash window.
  EXPECT_EQ(engine.overlay().online_count(),
            engine.overlay().consumer_count());
  expect_fully_healthy(engine.overlay());
}

TYPED_TEST(SchedulerConformance, PartitionedChildrenDetectDeadParents) {
  using S = TypeParam;
  // A long partition: attached nodes on the isolated side lose their
  // parents (or their parents' side) and must re-orphan via missed
  // polls, then rejoin the majority-side tree after the window.
  typename S::Config config;
  config.seed = 43;
  FaultPlan plan;
  plan.add(FaultPlan::partition(50.0, 120.0, 0.25));
  auto faults = std::make_shared<FaultInjector>(plan, 23);
  config.faults = faults;
  typename S::Engine engine(workload(60, 23), config);
  std::uint64_t parent_losses = 0;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kParentLost) ++parent_losses;
  });
  S::run(engine, 500.0);
  EXPECT_GT(faults->stats().partition_blocks, 0u);
  EXPECT_GT(parent_losses, 0u);
  expect_fully_healthy(engine.overlay());
}

// --- health layer ------------------------------------------------------

TYPED_TEST(SchedulerConformance, EpochStormKeepsAttachmentsFenced) {
  using S = TypeParam;
  // Heavy crash/rejoin churn. At EVERY sample the overlay must hold
  // zero stale-epoch attachments and zero cycles — the fence's job.
  // Two storms: crash waves around a drop window, and crash waves alone.
  FaultPlan with_drop;
  with_drop.add(FaultPlan::crashes(10.0, 80.0, 0.05, 4.0))
      .add(FaultPlan::drop(50.0, 120.0, 0.2))
      .add(FaultPlan::crashes(130.0, 200.0, 0.08, 6.0));
  FaultPlan crashes_only;
  crashes_only.add(FaultPlan::crashes(10.0, 60.0, 0.05, 4.0))
      .add(FaultPlan::crashes(80.0, 140.0, 0.08, 6.0));
  const std::pair<const FaultPlan*, RunSeeds> storms[] = {
      {&with_drop, {91, 37, 37}}, {&crashes_only, {93, 41, 41}}};
  for (const auto& [plan, seeds] : storms) {
    SCOPED_TRACE("seed " + std::to_string(seeds.engine));
    for (auto detection : {health::DetectionPolicy::kFixedMisses,
                           health::DetectionPolicy::kPhiAccrual}) {
      typename S::Config config;
      config.seed = seeds.engine;
      config.health.detection = detection;
      config.health.failover = health::FailoverPolicy::kLadder;
      auto faults = std::make_shared<FaultInjector>(*plan, seeds.faults);
      config.faults = faults;
      typename S::Engine engine(workload(60, seeds.population), config);
      std::size_t samples = 0;
      S::run(engine, 400.0, [&](double) {
        ++samples;
        const EpochAudit audit =
            audit_epochs(engine.overlay(), engine.epochs());
        EXPECT_TRUE(audit.stale_edges.empty())
            << audit.to_string() << " at sample " << samples;
        EXPECT_TRUE(audit.acyclic);
        engine.overlay().audit();
      });
      EXPECT_GT(samples, 0u);
      EXPECT_GT(faults->stats().crashes, 0u);
      EXPECT_GT(engine.epochs().bumps(), 0u);
      // Final state is clean too.
      EXPECT_TRUE(audit_epochs(engine.overlay(), engine.epochs()).ok());
    }
  }
}

TYPED_TEST(SchedulerConformance, LadderRecoversOrphansWithoutOracle) {
  using S = TypeParam;
  typename S::Config config;
  config.seed = 95;
  config.health.detection = health::DetectionPolicy::kPhiAccrual;
  config.health.failover = health::FailoverPolicy::kLadder;
  FaultPlan plan;
  plan.add(FaultPlan::crashes(20.0, 120.0, 0.04, 5.0));
  auto faults = std::make_shared<FaultInjector>(plan, 43);
  config.faults = faults;
  typename S::Engine engine(workload(80, 43), config);
  std::uint64_t failover_attaches = 0;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kFailoverAttach) ++failover_attaches;
  });
  S::run(engine, 400.0);
  EXPECT_GT(faults->stats().crashes, 0u);
  // The ladder actually fired, and its count matches the runtime's.
  EXPECT_GT(failover_attaches, 0u);
  EXPECT_EQ(failover_attaches, engine.runtime().failover_attaches());
  // Ladder attaches never violated structure (audited continuously by
  // Overlay::attach preconditions; spot-check the end state).
  engine.overlay().audit();
  EXPECT_TRUE(audit_epochs(engine.overlay(), engine.epochs()).ok());
}

TYPED_TEST(SchedulerConformance, DefaultPoliciesKeepLadderIdle) {
  using S = TypeParam;
  typename S::Config config;  // defaults: kFixedMisses + kOracleRejoin
  config.seed = 97;
  FaultPlan plan;
  plan.add(FaultPlan::crashes(20.0, 80.0, 0.04, 5.0));
  auto faults = std::make_shared<FaultInjector>(plan, 47);
  config.faults = faults;
  typename S::Engine engine(workload(60, 47), config);
  S::run(engine, 300.0);
  EXPECT_GT(faults->stats().crashes, 0u);
  EXPECT_EQ(engine.runtime().failover_attaches(), 0u);
}

// --- defense ladder ----------------------------------------------------

TYPED_TEST(SchedulerConformance, DefenseLadderQuarantinesDelayLiars) {
  using S = TypeParam;
  ByzantineSpec spec;
  spec.delay_liar_fraction = 0.2;
  typename S::Config config;
  config.seed = 5;
  config.adversary = std::make_shared<AdversaryBook>(spec, 61);
  config.defense.enabled = true;
  typename S::Engine engine(workload(60, 5), config);
  S::run(engine, 300.0);

  ASSERT_NE(engine.runtime().byzantine_oracle(), nullptr);
  const health::SuspicionBook& suspicion = engine.runtime().suspicion();
  EXPECT_GT(suspicion.quarantines(), 0u);
  // The ladder is mostly precise: the barred set is dominated by actual
  // delay-liars. Some honest collateral is expected — an honest node
  // attached under a liar honestly relays the understated chain
  // downstream, so its own children's delay verification blames it.
  const auto barred = suspicion.barred_nodes();
  ASSERT_FALSE(barred.empty());
  std::size_t barred_liars = 0;
  for (NodeId id : barred)
    if (config.adversary->role(id) == AdversaryClass::kDelayLiar)
      ++barred_liars;
  EXPECT_GT(barred_liars, 0u);
  EXPECT_GE(barred_liars * 2, barred.size());  // liars are the majority
}

TYPED_TEST(SchedulerConformance, UndefendedLiarsDegradeTheOverlay) {
  using S = TypeParam;
  ByzantineSpec spec;
  spec.delay_liar_fraction = 0.2;
  typename S::Config config;
  config.seed = 5;
  config.adversary = std::make_shared<AdversaryBook>(spec, 61);
  config.defense.enabled = false;
  typename S::Engine engine(workload(60, 5), config);
  const double fraction = S::run(engine, 300.0);
  // With a fifth of the population understating DelayAt and no defense,
  // some victims end the run violated or orphaned.
  EXPECT_LT(fraction, 1.0);
  EXPECT_EQ(engine.runtime().suspicion().reports(), 0u);  // never engaged
  EXPECT_EQ(engine.runtime().quarantine_detaches(), 0u);
}

// --- admission control -------------------------------------------------

TYPED_TEST(SchedulerConformance, TightAdmissionRationsTheOracle) {
  using S = TypeParam;
  typename S::Config config;
  config.seed = 13;
  config.admission.rate_limit = 2.0;
  config.admission.window = 5.0;
  config.admission.serve_stale = true;
  typename S::Engine engine(workload(40, 13), config);
  S::run(engine, 150.0);
  const AdmissionController* control = engine.runtime().admission();
  ASSERT_NE(control, nullptr);
  EXPECT_GT(control->admitted(), 0u);
  // Forty orphans against two admits per five time units must overflow
  // the window — degraded service (stale/reject), not free rein.
  EXPECT_GT(control->stale_verdicts() + control->rejected(), 0u);
}

// --- the event stream --------------------------------------------------

/// Turns telemetry on and collects the process-global event bus for
/// the collector's lifetime (one run's stream when it spans one run).
class ProcessStream {
 public:
  ProcessStream() : was_on_(telemetry::enabled()) {
    telemetry::set_enabled(true);
    subscription_ = telemetry::event_bus().subscribe(
        [this](const TraceEvent& event) { events.push_back(event); });
  }
  ~ProcessStream() {
    telemetry::event_bus().unsubscribe(subscription_);
    telemetry::set_enabled(was_on_);
  }
  ProcessStream(const ProcessStream&) = delete;
  ProcessStream& operator=(const ProcessStream&) = delete;

  std::size_t count(TraceEventType type) const {
    std::size_t n = 0;
    for (const TraceEvent& event : events) n += event.type == type ? 1 : 0;
    return n;
  }

  std::vector<TraceEvent> events;

 private:
  bool was_on_;
  TraceBus::SubscriptionId subscription_ = 0;
};

/// The departure announced by events[at] (a crash or churn leave): its
/// edge_detach events and the node's node_offline sit next to it, in
/// direction `step`, and each carries its time.
void expect_departure_stamped(const std::vector<TraceEvent>& events,
                              std::size_t at, int step) {
  const TraceEvent& leave = events[at];
  bool offline = false;
  for (auto j = static_cast<std::ptrdiff_t>(at) + step;
       j >= 0 && j < static_cast<std::ptrdiff_t>(events.size()); j += step) {
    const TraceEvent& event = events[static_cast<std::size_t>(j)];
    const bool own_offline = event.type == TraceEventType::kNodeOffline &&
                             event.subject == leave.subject;
    if (event.type != TraceEventType::kEdgeDetach && !own_offline) break;
    EXPECT_EQ(event.when, leave.when)
        << to_string(event.type) << " of node " << event.subject << " vs "
        << to_string(leave.type) << " of node " << leave.subject;
    if (own_offline) {
      offline = true;
      if (step > 0) break;
    }
  }
  EXPECT_TRUE(offline) << to_string(leave.type) << " of node "
                       << leave.subject << " at " << leave.when;
}

/// One run's stream never steps back in time, and every structural
/// event of a join, leave or crash carries the time of the protocol
/// event that names it.
template <typename S>
void expect_stamped_by_runtime(const std::vector<TraceEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i)
    ASSERT_GE(events[i].when, events[i - 1].when)
        << to_string(events[i].type) << " of node " << events[i].subject
        << " (event " << i << ") steps back in time";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    switch (event.type) {
      case TraceEventType::kNodeOnline: {
        // A join brings the node online, then announces it.
        ASSERT_LT(i + 1, events.size());
        const TraceEvent& join = events[i + 1];
        EXPECT_TRUE(join.type == TraceEventType::kRejoin ||
                    join.type == TraceEventType::kChurnJoin)
            << to_string(join.type);
        EXPECT_EQ(join.subject, event.subject);
        EXPECT_EQ(event.when, join.when) << "node " << event.subject;
        break;
      }
      case TraceEventType::kCrash:
        expect_departure_stamped(events, i, 1);
        break;
      case TraceEventType::kChurnLeave:
        expect_departure_stamped(events, i, S::kAnnouncesLeaveFirst ? 1 : -1);
        break;
      default:
        break;
    }
  }
}

TYPED_TEST(SchedulerConformance, EventStreamIsStampedByTheRuntimeClock) {
  using S = TypeParam;
  {
    SCOPED_TRACE("crash plan");
    typename S::Config config;
    config.seed = 41;
    FaultPlan plan;
    plan.add(FaultPlan::crashes(10.0, 50.0, 0.05, 3.0));
    config.faults = std::make_shared<FaultInjector>(plan, 17);
    ProcessStream stream;
    typename S::Engine engine(workload(60, 19), config);
    S::run(engine, 80.0);
    EXPECT_GT(stream.count(TraceEventType::kRejoin), 0u);
    EXPECT_EQ(stream.count(TraceEventType::kNodeOnline),
              stream.count(TraceEventType::kRejoin));
    expect_stamped_by_runtime<S>(stream.events);
  }
  {
    SCOPED_TRACE("churn");
    typename S::Config config;
    config.seed = 7;
    WorkloadParams params;
    params.peers = 60;
    params.seed = 7;
    ProcessStream stream;
    typename S::Engine engine(generate_workload(WorkloadKind::kRand, params),
                              config);
    engine.set_churn(std::make_unique<BernoulliChurn>(0.02, 0.3));
    S::run(engine, 60.0);
    EXPECT_GT(stream.count(TraceEventType::kChurnLeave), 0u);
    EXPECT_GT(stream.count(TraceEventType::kChurnJoin), 0u);
    expect_stamped_by_runtime<S>(stream.events);
  }
  {
    SCOPED_TRACE("parked after an earlier run");
    ASSERT_GT(telemetry::sim_now(), 0.0);  // the runs above moved it
    typename S::Config config;
    config.seed = 9;
    ProcessStream stream;
    typename S::Engine engine(workload(20, 9), config);
    S::park(engine, 3);
    ASSERT_EQ(stream.events.size(), 1u);
    EXPECT_EQ(stream.events[0].type, TraceEventType::kNodeOffline);
    EXPECT_EQ(stream.events[0].subject, 3u);
    EXPECT_EQ(stream.events[0].when, 0.0);
    S::run(engine, 20.0);
    expect_stamped_by_runtime<S>(stream.events);
  }
}

/// Every aggregate a FailoverRecorder reports.
void expect_same_failover(const metrics::FailoverRecorder& a,
                          const metrics::FailoverRecorder& b) {
  EXPECT_EQ(a.detection_latency().values(), b.detection_latency().values());
  EXPECT_EQ(a.orphan_time().values(), b.orphan_time().values());
  EXPECT_EQ(a.crashes(), b.crashes());
  EXPECT_EQ(a.suspicions(), b.suspicions());
  EXPECT_EQ(a.false_suspicions(), b.false_suspicions());
  EXPECT_EQ(a.fences(), b.fences());
  EXPECT_EQ(a.failover_attaches(), b.failover_attaches());
  EXPECT_EQ(a.detections(), b.detections());
}

TYPED_TEST(SchedulerConformance, FailoverRecorderNeedsOnlyTheStream) {
  using S = TypeParam;
  // bench_failover's plan: crash storms around a lossy window.
  FaultPlan plan;
  plan.add(FaultPlan::crashes(40.0, 90.0, 0.02, 6.0))
      .add(FaultPlan::drop(110.0, 150.0, 0.25))
      .add(FaultPlan::crashes(170.0, 220.0, 0.03, 8.0));
  for (auto detection : {health::DetectionPolicy::kFixedMisses,
                         health::DetectionPolicy::kPhiAccrual}) {
    SCOPED_TRACE(to_string(detection));
    typename S::Config config;
    config.seed = 29;
    config.health.detection = detection;
    config.health.failover = health::FailoverPolicy::kLadder;
    config.faults = std::make_shared<FaultInjector>(plan, 29 ^ 0xfa170);
    typename S::Engine engine(workload(80, 29), config);
    const std::size_t nodes = engine.overlay().node_count();
    metrics::FailoverRecorder live(nodes);
    live.subscribe(engine.trace_bus());
    std::vector<TraceEvent> recorded;
    engine.trace_bus().subscribe(
        [&](const TraceEvent& event) { recorded.push_back(event); });
    S::run(engine, 300.0);

    metrics::FailoverRecorder replayed(nodes);
    for (const TraceEvent& event : recorded) replayed.on_trace(event);
    expect_same_failover(live, replayed);
    // Not vacuous: crashes orphaned children that were detected, and
    // the drop window raised suspicions of live parents.
    EXPECT_GT(live.crashes(), 0u);
    EXPECT_GT(live.detections(), 0u);
    EXPECT_GT(live.orphan_time().size(), 0u);
    EXPECT_GT(live.false_suspicions(), 0u);
  }
}

}  // namespace
}  // namespace lagover
