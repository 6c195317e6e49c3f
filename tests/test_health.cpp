// Health-layer tests: the phi-accrual failure detector, the epoch-fenced
// lease book, the validator's epoch audit, and the failover metrics
// recorder. The engine-level cases — the acceptance "epoch storm" (heavy
// crash/rejoin churn during which audit_epochs must stay clean at every
// sample) and the failover ladder end to end — run on both schedulers
// in test_conformance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/validator.hpp"
#include "health/failure_detector.hpp"
#include "health/health.hpp"
#include "health/lease.hpp"
#include "metrics/failover.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

// --- phi-accrual detector --------------------------------------------

TEST(PhiDetectorTest, UnprimedUntilMinSamples) {
  health::PhiConfig config;
  config.min_samples = 3;
  health::PhiAccrualDetector detector(4, config);
  detector.heartbeat(1, 1.0);  // first beat: no interval yet
  EXPECT_FALSE(detector.primed(1));
  detector.heartbeat(1, 2.0);
  detector.heartbeat(1, 3.0);
  EXPECT_FALSE(detector.primed(1));  // two intervals < min_samples
  detector.heartbeat(1, 4.0);
  EXPECT_TRUE(detector.primed(1));
  EXPECT_EQ(detector.interval_count(1), 3u);
  EXPECT_DOUBLE_EQ(detector.mean_interval(1), 1.0);
  // An unprimed link is never suspect.
  EXPECT_FALSE(detector.suspect(2, 100.0));
}

TEST(PhiDetectorTest, PhiGrowsWithSilence) {
  health::PhiAccrualDetector detector(2, health::PhiConfig{});
  for (int beat = 0; beat <= 6; ++beat)
    detector.heartbeat(1, static_cast<double>(beat));
  const double at_expected = detector.phi(1, 7.0);   // right on cadence
  const double late = detector.phi(1, 9.0);          // 2 periods silent
  const double very_late = detector.phi(1, 12.0);    // 5 periods silent
  EXPECT_LT(at_expected, late);
  EXPECT_LT(late, very_late);
  EXPECT_FALSE(detector.suspect(1, 6.5));
  EXPECT_TRUE(detector.suspect(1, 12.0));
}

TEST(PhiDetectorTest, ThresholdAdaptsToLinkCadence) {
  // Link 1 beats every 1.0 units, link 2 every 4.0: the same wall-clock
  // silence means very different things. Six units after the last beat
  // the fast link must look far more suspicious than the slow one.
  health::PhiAccrualDetector detector(3, health::PhiConfig{});
  for (int beat = 0; beat <= 8; ++beat) {
    detector.heartbeat(1, static_cast<double>(beat));
    detector.heartbeat(2, static_cast<double>(beat) * 4.0);
  }
  const double fast_phi = detector.phi(1, 8.0 + 6.0);
  const double slow_phi = detector.phi(2, 32.0 + 6.0);
  EXPECT_GT(fast_phi, slow_phi);
  EXPECT_TRUE(detector.suspect(1, 8.0 + 6.0));
  EXPECT_FALSE(detector.suspect(2, 32.0 + 6.0));
}

TEST(PhiDetectorTest, ResetForgetsHistory) {
  health::PhiAccrualDetector detector(2, health::PhiConfig{});
  for (int beat = 0; beat <= 5; ++beat)
    detector.heartbeat(1, static_cast<double>(beat));
  ASSERT_TRUE(detector.primed(1));
  detector.reset(1);
  EXPECT_FALSE(detector.primed(1));
  EXPECT_EQ(detector.interval_count(1), 0u);
  EXPECT_DOUBLE_EQ(detector.phi(1, 100.0), 0.0);
}

// --- epoch book -------------------------------------------------------

TEST(EpochBookTest, BumpAndLeaseLifecycle) {
  health::EpochBook book(5);
  EXPECT_EQ(book.epoch(3), 1u);  // everyone starts in epoch 1
  EXPECT_FALSE(book.has_lease(2));

  book.record_attachment(2, 3);
  EXPECT_TRUE(book.has_lease(2));
  EXPECT_EQ(book.lease_epoch(2), 1u);
  EXPECT_TRUE(book.lease_valid(2, 3));

  // Parent 3 re-incarnates: child 2's lease is now stale.
  EXPECT_EQ(book.bump(3), 2u);
  EXPECT_FALSE(book.lease_valid(2, 3));
  EXPECT_EQ(book.bumps(), 1u);

  book.clear_lease(2);
  EXPECT_FALSE(book.has_lease(2));
  // No lease recorded = treated as valid (pre-health overlays).
  EXPECT_TRUE(book.lease_valid(2, 3));

  book.note_fence();
  EXPECT_EQ(book.fences(), 1u);
}

TEST(EpochBookTest, AuditFlagsStaleEdges) {
  Population p;
  p.source_fanout = 2;
  p.consumers = {NodeSpec{1, Constraints{2, 1}}, NodeSpec{2, Constraints{1, 2}},
                 NodeSpec{3, Constraints{0, 3}}};
  Overlay overlay(p);
  health::EpochBook book(overlay.node_count());
  overlay.set_attach_observer([&](NodeId child, NodeId parent) {
    book.record_attachment(child, parent);
  });
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 2);

  EXPECT_TRUE(audit_epochs(overlay, book).ok());
  EXPECT_TRUE(audit_epochs(overlay, book).stale_edges.empty());

  // Node 2 "re-incarnates" while 3 still holds a lease on its old life.
  book.bump(2);
  const EpochAudit audit = audit_epochs(overlay, book);
  EXPECT_FALSE(audit.ok());
  ASSERT_EQ(audit.stale_edges.size(), 1u);
  EXPECT_EQ(audit.stale_edges[0], 3u);
  EXPECT_TRUE(audit.acyclic);
}

// --- failover metrics recorder ---------------------------------------

TEST(FailoverRecorderTest, DerivesDetectionAndOrphanTimes) {
  Population p;
  p.source_fanout = 2;
  p.consumers = {NodeSpec{1, Constraints{2, 1}}, NodeSpec{2, Constraints{1, 2}},
                 NodeSpec{3, Constraints{0, 3}}};
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 2);

  metrics::FailoverRecorder recorder(overlay);
  // Node 2 crashes at t=10 (emitted BEFORE the structural change: node 3
  // is still its child). Node 3 discovers at t=12 (its first orphan-loop
  // event) and re-attaches at t=15.
  recorder.on_trace(
      {10, TraceEventType::kCrash, 2, kNoNode, false, 10.0});
  overlay.set_offline(2);  // orphans node 3, as the engines do
  recorder.on_trace(
      {12, TraceEventType::kInteractionFailed, 3, 1, false, 12.0});
  recorder.on_trace({15, TraceEventType::kFailoverAttach, 3, 1, true, 15.0});

  EXPECT_EQ(recorder.crashes(), 1u);
  EXPECT_EQ(recorder.detections(), 1u);
  ASSERT_EQ(recorder.detection_latency().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.detection_latency().mean(), 2.0);
  ASSERT_EQ(recorder.orphan_time().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.orphan_time().mean(), 5.0);
  EXPECT_EQ(recorder.failover_attaches(), 1u);
}

TEST(FailoverRecorderTest, CountsFalseSuspicions) {
  Population p;
  p.source_fanout = 2;
  p.consumers = {NodeSpec{1, Constraints{2, 1}}, NodeSpec{2, Constraints{1, 2}},
                 NodeSpec{3, Constraints{0, 3}}};
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);

  metrics::FailoverRecorder recorder(overlay);
  // Node 2 suspects node 1 — which is still online: a false positive.
  recorder.on_trace({5, TraceEventType::kParentLost, 2, 1, false, 5.0});
  EXPECT_EQ(recorder.suspicions(), 1u);
  EXPECT_EQ(recorder.false_suspicions(), 1u);
  EXPECT_DOUBLE_EQ(recorder.false_positive_rate(), 1.0);

  // Node 2 re-attaches at t=9: orphan period of 4.
  recorder.on_trace({9, TraceEventType::kInteraction, 2, 1, true, 9.0});
  ASSERT_EQ(recorder.orphan_time().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.orphan_time().mean(), 4.0);
}

// --- to_string coverage ----------------------------------------------

TEST(HealthTest, PolicyNames) {
  EXPECT_EQ(to_string(health::DetectionPolicy::kFixedMisses), "fixed-misses");
  EXPECT_EQ(to_string(health::DetectionPolicy::kPhiAccrual), "phi-accrual");
  EXPECT_EQ(to_string(health::FailoverPolicy::kOracleRejoin),
            "oracle-rejoin");
  EXPECT_EQ(to_string(health::FailoverPolicy::kLadder), "ladder");
}

}  // namespace
}  // namespace lagover
