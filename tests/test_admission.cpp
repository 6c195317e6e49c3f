// Oracle admission-control tests: the windowed rate limiter's verdicts,
// the circuit breaker's trip / half-open / close hysteresis, the
// AdmittedOracle's stale-cache serving and rejection signalling, and
// that an empty AdmissionConfig installs nothing. The engine-level
// guarantees (a permissive config is byte-identical, a tight one
// actually rations the Oracle) run on both schedulers in
// test_conformance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/engine.hpp"
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

TEST(AdmittedOracleTest, ServesStaleFromCacheWithoutRng) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/true));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng(5);
  const auto fresh = oracle.sample(1, overlay, rng);
  ASSERT_TRUE(fresh.has_value());
  // Over budget in the same window: the cached partner serves and the
  // inner Oracle is not consulted (the RNG claim is checked separately
  // in StaleVerdictDrawsNoRng). The querier must differ from the cached
  // partner — a node is never a plausible answer to itself.
  const NodeId stale_querier = *fresh == 2 ? 3 : 2;
  const auto stale = oracle.sample(stale_querier, overlay, rng);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, *fresh);
  EXPECT_EQ(oracle.stale_served(), 1u);
}

TEST(AdmittedOracleTest, StaleVerdictDrawsNoRng) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/true));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng_a(5);
  Rng rng_b(5);
  (void)oracle.sample(1, overlay, rng_a);  // admitted — draws
  (void)oracle.sample(2, overlay, rng_a);  // stale — must not draw
  // A twin stream that only performs the admitted draw stays in sync.
  AdmittedOracle twin(make_oracle(OracleKind::kRandom),
                      std::make_shared<AdmissionController>(
                          tight(1.0, /*serve_stale=*/true)),
                      [&now] { return now; });
  (void)twin.sample(1, overlay, rng_b);
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(AdmittedOracleTest, RejectionSetsPendingFlagOnce) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/false));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng(5);
  EXPECT_TRUE(oracle.sample(1, overlay, rng).has_value());
  EXPECT_FALSE(oracle.consume_rejection());
  EXPECT_FALSE(oracle.sample(2, overlay, rng).has_value());
  EXPECT_TRUE(oracle.consume_rejection());
  EXPECT_FALSE(oracle.consume_rejection());  // reading clears it
}

TEST(EngineAdmissionTest, EmptyConfigInstallsNothing) {
  EngineConfig config;
  config.seed = 7;
  Engine engine(small_population(30, 7), config);
  EXPECT_EQ(engine.runtime().admission(), nullptr);
  EXPECT_EQ(engine.runtime().admitted_oracle(), nullptr);
}

}  // namespace
}  // namespace lagover
