// Oracle admission-control tests: the windowed rate limiter's verdicts,
// the circuit breaker's trip / half-open / close hysteresis, how the
// runtime's Oracle query step carries the verdicts out (stale-cache
// serving, rejection signalling), and that an empty AdmissionConfig
// builds nothing. The engine-level
// guarantees (a permissive config is byte-identical, a tight one
// actually rations the Oracle) run on both schedulers in
// test_conformance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/engine.hpp"
#include "core/node_runtime.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using Verdict = AdmissionController::Verdict;

AdmissionConfig tight(double rate_limit = 1.0, bool serve_stale = false) {
  AdmissionConfig config;
  config.rate_limit = rate_limit;
  config.window = 1.0;
  config.retry_after = 2.0;
  config.breaker_trip_windows = 2;
  config.breaker_cooldown = 5.0;
  config.breaker_close_windows = 2;
  config.serve_stale = serve_stale;
  return config;
}

TEST(AdmissionControllerTest, AdmitsWithinBudgetThenServesStale) {
  AdmissionController control(tight(2.0, /*serve_stale=*/true));
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.2), Verdict::kStale);
  EXPECT_EQ(control.admitted(), 2u);
  EXPECT_EQ(control.stale_verdicts(), 1u);
  EXPECT_EQ(control.rejected(), 0u);
}

TEST(AdmissionControllerTest, RejectsOutrightWithoutStaleServing) {
  AdmissionController control(tight(1.0, /*serve_stale=*/false));
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kReject);
  EXPECT_EQ(control.rejected(), 1u);
  EXPECT_EQ(control.stale_verdicts(), 0u);
}

TEST(AdmissionControllerTest, WindowRollRestoresTheBudget) {
  AdmissionController control(tight());
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kReject);
  // The next unit-time window starts with a fresh budget; one lone
  // saturated window must not trip a breaker that needs two.
  EXPECT_EQ(control.on_query(1.0), Verdict::kAdmit);
  EXPECT_EQ(control.breaker_trips(), 0u);
}

TEST(AdmissionControllerTest, BreakerTripsAfterConsecutiveSaturation) {
  AdmissionController control(tight());
  // Saturate windows [0,1) and [1,2): streak reaches trip threshold 2
  // when the roll into window 2 closes them.
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  EXPECT_EQ(control.breaker_trips(), 0u);
  EXPECT_EQ(control.on_query(2.0), Verdict::kReject);
  EXPECT_EQ(control.breaker_trips(), 1u);
  EXPECT_TRUE(control.open(2.5));
  EXPECT_EQ(control.on_query(2.5), Verdict::kReject);
}

TEST(AdmissionControllerTest, HalfOpenClosesAfterCleanWindows) {
  AdmissionController control(tight());
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  control.on_query(2.0);  // trips
  ASSERT_EQ(control.breaker_trips(), 1u);
  // Past the cooldown the breaker half-opens and probe traffic flows.
  EXPECT_FALSE(control.open(7.5));
  EXPECT_EQ(control.on_query(7.5), Verdict::kAdmit);
  // Two consecutive clean windows close it for good.
  EXPECT_EQ(control.on_query(8.5), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(9.5), Verdict::kAdmit);
  EXPECT_EQ(control.breaker_closes(), 1u);
  EXPECT_FALSE(control.open(9.6));
}

TEST(AdmissionControllerTest, HalfOpenRetripsOnRenewedSaturation) {
  AdmissionController control(tight());
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  control.on_query(2.0);  // trips, opened around t=2
  ASSERT_EQ(control.breaker_trips(), 1u);
  // The probe window saturates again: the crowd never left.
  control.on_query(7.2);
  control.on_query(7.4);
  control.on_query(8.5);  // roll closes the saturated probe window
  EXPECT_EQ(control.breaker_trips(), 2u);
  EXPECT_TRUE(control.open(8.6));
}

Population small_population(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

/// Oracle answering a scripted partner (kNoNode = nothing) and counting
/// the queries that reach it.
class ScriptedOracle final : public Oracle {
 public:
  OracleKind kind() const noexcept override { return OracleKind::kRandom; }

  NodeId answer = 2;
  int calls = 0;

 protected:
  std::optional<NodeId> sample_impl(NodeId, const Overlay&, Rng&) override {
    ++calls;
    if (answer == kNoNode) return std::nullopt;
    return answer;
  }
};

/// A runtime over small_population(10, 3) whose Oracle is the
/// configured kRandom DirectoryOracle, with admission `admission`.
struct AdmissionHarness {
  explicit AdmissionHarness(const AdmissionConfig& admission)
      : config(make_config(admission)),
        runtime(small_population(10, 3), config, /*timeout_limit=*/10) {}

  static RuntimeConfig make_config(const AdmissionConfig& admission) {
    RuntimeConfig config;
    config.oracle = OracleKind::kRandom;
    config.admission = admission;
    return config;
  }

  /// Installs a ScriptedOracle in place of the DirectoryOracle.
  ScriptedOracle& script() {
    auto oracle = std::make_unique<ScriptedOracle>();
    ScriptedOracle& view = *oracle;
    runtime.set_oracle(std::move(oracle));
    return view;
  }

  RuntimeConfig config;
  NodeRuntime runtime;
};

TEST(AdmissionStepTest, ServesStaleFromCacheWithoutTheOracle) {
  AdmissionHarness h(tight(1.0, /*serve_stale=*/true));
  ScriptedOracle& oracle = h.script();
  Rng rng(5);
  const StepOutcome fresh = h.runtime.orphan_step(1, rng);
  ASSERT_EQ(fresh.partner, 2u);
  // Over budget in the same window: the cached partner serves and the
  // Oracle is not consulted. The querier must differ from the cached
  // partner: a node is never a plausible answer to itself.
  const StepOutcome stale = h.runtime.orphan_step(3, rng);
  EXPECT_EQ(stale.partner, 2u);
  EXPECT_FALSE(stale.rejected);
  EXPECT_EQ(oracle.calls, 1);
  EXPECT_EQ(h.runtime.oracle().stats().queries, 1u);
  EXPECT_EQ(h.runtime.stale_served(), 1u);
  EXPECT_EQ(h.runtime.admission()->stale_verdicts(), 1u);
}

TEST(AdmissionStepTest, StaleVerdictDrawsNoRng) {
  AdmissionHarness h(tight(1.0, /*serve_stale=*/true));
  Rng rng(5);
  const StepOutcome fresh = h.runtime.orphan_step(1, rng);  // draws
  ASSERT_NE(fresh.partner, kNoNode);
  // Neither 1 nor the partner: still parentless, and served the partner.
  const NodeId stale_querier = fresh.partner == 2 ? 3 : 2;
  Rng twin = rng;
  const StepOutcome stale = h.runtime.orphan_step(stale_querier, rng);
  EXPECT_EQ(stale.partner, fresh.partner);
  EXPECT_EQ(h.runtime.stale_served(), 1u);
  // The stale step left the stream where the admitted draw put it.
  EXPECT_EQ(rng(), twin());
}

TEST(AdmissionStepTest, RejectionNotEmptinessDrivesBackoff) {
  AdmissionHarness h(tight(1.0, /*serve_stale=*/false));
  ScriptedOracle& oracle = h.script();
  Rng rng(5);
  const StepOutcome admitted = h.runtime.orphan_step(1, rng);
  EXPECT_EQ(admitted.partner, 2u);
  EXPECT_FALSE(admitted.rejected);
  // Over budget without stale serving: a rejection, which the engines
  // answer with their admission backoff.
  const StepOutcome rejected = h.runtime.orphan_step(3, rng);
  EXPECT_EQ(rejected.partner, kNoNode);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(oracle.calls, 1);
  EXPECT_EQ(h.runtime.admission()->rejected(), 1u);
  // A fresh window admits again; an empty answer there is plain
  // starvation, which backs nobody off.
  oracle.answer = kNoNode;
  h.runtime.advance_to(1.0);
  const StepOutcome empty = h.runtime.orphan_step(3, rng);
  EXPECT_EQ(empty.partner, kNoNode);
  EXPECT_FALSE(empty.rejected);
  EXPECT_EQ(oracle.calls, 2);
}

TEST(EngineAdmissionTest, EmptyConfigInstallsNothing) {
  EngineConfig config;
  config.seed = 7;
  Engine engine(small_population(30, 7), config);
  EXPECT_EQ(engine.runtime().admission(), nullptr);
  EXPECT_EQ(engine.runtime().stale_served(), 0u);
}

TEST(EngineAdmissionTest, AdmissionKeepsTheConfiguredOracle) {
  EngineConfig config;
  config.seed = 7;
  config.admission = tight();
  Engine engine(small_population(30, 7), config);
  EXPECT_NE(engine.runtime().admission(), nullptr);
  // Admission decides in the runtime's query step: the Oracle is the
  // configured DirectoryOracle itself, not a wrapper around it.
  EXPECT_NE(dynamic_cast<const DirectoryOracle*>(&engine.oracle()), nullptr);
}

}  // namespace
}  // namespace lagover
