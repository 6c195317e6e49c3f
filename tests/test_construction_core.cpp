// Unit tests for the shared per-node construction behaviour
// (NodeRuntime): timeout-driven source contact, referral reuse, source
// referrals, oracle starvation, maintenance patience, and state resets —
// driven by a scripted oracle for full control, observed through the
// runtime's trace bus.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/node_runtime.hpp"

namespace lagover {
namespace {

/// Oracle returning a pre-programmed sequence of answers (kNoNode
/// entries mean "no suitable partner"); an exhausted script answers
/// empty forever.
class ScriptedOracle final : public Oracle {
 public:
  explicit ScriptedOracle(std::vector<NodeId> script)
      : script_(script.begin(), script.end()) {}

  OracleKind kind() const noexcept override { return OracleKind::kRandom; }

 protected:
  std::optional<NodeId> sample_impl(NodeId, const Overlay&, Rng&) override {
    if (script_.empty()) return std::nullopt;
    const NodeId next = script_.front();
    script_.pop_front();
    if (next == kNoNode) return std::nullopt;
    return next;
  }

 private:
  std::deque<NodeId> script_;
};

Population chain_population() {
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 1}},
      NodeSpec{2, Constraints{1, 3}},
      NodeSpec{3, Constraints{1, 5}},
  };
  return p;
}

/// A runtime over `population` whose Oracle plays `script`, recording
/// every protocol event it publishes (structural ones are left out).
struct Harness {
  explicit Harness(std::vector<NodeId> script, int timeout_limit = 3,
                   Population population = chain_population(),
                   AlgorithmKind algorithm = AlgorithmKind::kGreedy,
                   int patience = 1)
      : config(make_config(algorithm, patience)),
        runtime(std::move(population), config, timeout_limit),
        rng(7) {
    runtime.set_oracle(std::make_unique<ScriptedOracle>(std::move(script)));
    runtime.trace_bus().subscribe([this](const TraceEvent& event) {
      if (!telemetry::structural(event.type)) events.push_back(event);
    });
  }

  static RuntimeConfig make_config(AlgorithmKind algorithm, int patience) {
    RuntimeConfig config;
    config.algorithm = algorithm;
    config.maintenance_patience = patience;
    return config;
  }

  Overlay& overlay() { return runtime.overlay(); }

  RuntimeConfig config;
  NodeRuntime runtime;
  Rng rng;
  std::vector<TraceEvent> events;
};

TEST(NodeRuntimeTest, TimeoutTriggersSourceContact) {
  // Oracle always empty: after timeout_limit starved steps the node
  // contacts the source directly.
  Harness h({}, /*timeout_limit=*/3);
  for (int step = 0; step < 3; ++step) h.runtime.orphan_step(1, h.rng);
  EXPECT_FALSE(h.overlay().has_parent(1));
  h.runtime.orphan_step(1, h.rng);
  EXPECT_EQ(h.overlay().parent(1), kSourceId);
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events.back().type, TraceEventType::kSourceContact);
  EXPECT_TRUE(h.events.back().attached);
}

TEST(NodeRuntimeTest, OracleEmptyEventsEmitted) {
  Harness h({});
  h.runtime.orphan_step(2, h.rng);
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].type, TraceEventType::kOracleEmpty);
}

TEST(NodeRuntimeTest, ReferralPartnerUsedOnNextStep) {
  // Querier 4 meets the saturated node 2 (no attach or displacement is
  // legal), gets referred upstream to Parent(2) = node 1, and the next
  // step interacts with node 1 WITHOUT consulting the Oracle again.
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 2}},  // chain: 0 <- 1
      NodeSpec{2, Constraints{1, 3}},  //        1 <- 2
      NodeSpec{3, Constraints{0, 3}},  //        2 <- 3 (saturates 2)
      NodeSpec{4, Constraints{2, 4}},  // querier
  };
  // Script holds exactly ONE answer: if the second step asked the
  // Oracle it would starve instead of interacting.
  Harness h({2}, 10, p);
  Overlay& overlay = h.overlay();
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 2);

  // Node 2 cannot host 4 (full; child 3 would be violated one deeper,
  // and 3 is stricter than 4 so it won't yield its slot either).
  h.runtime.orphan_step(4, h.rng);
  EXPECT_FALSE(overlay.has_parent(4));
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].type, TraceEventType::kInteraction);
  EXPECT_EQ(h.events[0].partner, 2u);

  // The referral (node 1) is the next partner.
  h.runtime.orphan_step(4, h.rng);
  ASSERT_EQ(h.events.size(), 2u);
  EXPECT_EQ(h.events[1].type, TraceEventType::kInteraction);
  EXPECT_EQ(h.events[1].partner, 1u);
}

TEST(NodeRuntimeTest, UpstreamReferralChainsToSource) {
  // Node 1 (l=1) interacts with connected node 2 (delay 2): greedy
  // cannot host it there and refers it upstream; following referrals it
  // reaches a source contact and displaces the laxer chain.
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 1}},
      NodeSpec{2, Constraints{1, 2}},
      NodeSpec{3, Constraints{1, 4}},
  };
  // Script: node 1's oracle sample is the deep node 3.
  Harness h({3}, 10, p);
  Overlay& overlay = h.overlay();
  overlay.attach(2, kSourceId);
  overlay.attach(3, 2);

  // Step 1: interact with 3 (l=4 > l=1): tries to take 3's slot under 2,
  // but l_2 = 2 > l_1 = 1 fails the insertion delay check? delay_at(3)=2
  // > l_1=1, so referral = parent(3) = 2.
  h.runtime.orphan_step(1, h.rng);
  EXPECT_FALSE(overlay.has_parent(1));
  // Step 2: uses referral 2; l_2=2 > l_1: try insertion above 2 (under
  // the source): delay 1 <= 1, order ok (source), fanout(1) free.
  h.runtime.orphan_step(1, h.rng);
  EXPECT_EQ(overlay.parent(1), kSourceId);
  EXPECT_EQ(overlay.parent(2), 1u);
  EXPECT_EQ(overlay.first_greedy_order_violation(), kNoNode);
}

TEST(NodeRuntimeTest, HybridSourceReferralContactsSourceNextStep) {
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{0, 1}},
      NodeSpec{2, Constraints{0, 3}},
  };
  // Node 2 meets the source child 1 (fanout 0): nothing possible,
  // hybrid says "refer i to 0".
  Harness h({1}, 10, p, AlgorithmKind::kHybrid);
  h.overlay().attach(1, kSourceId);

  h.runtime.orphan_step(2, h.rng);
  EXPECT_FALSE(h.overlay().has_parent(2));
  h.runtime.orphan_step(2, h.rng);
  ASSERT_GE(h.events.size(), 2u);
  EXPECT_EQ(h.events[1].type, TraceEventType::kSourceContact);
  // Source is full with a stricter node (l=1 < l=3): contact fails.
  EXPECT_FALSE(h.events[1].attached);
}

TEST(NodeRuntimeTest, StepsAreNoOpsForAttachedOrOfflineNodes) {
  Harness h({2, 2});
  h.overlay().attach(1, kSourceId);
  h.runtime.orphan_step(1, h.rng);  // already attached
  EXPECT_TRUE(h.events.empty());

  h.overlay().set_offline(2);
  h.runtime.orphan_step(2, h.rng);  // offline
  EXPECT_TRUE(h.events.empty());
}

TEST(NodeRuntimeTest, ResetClearsTimeoutProgress) {
  Harness h({}, /*timeout_limit=*/2);
  h.runtime.orphan_step(1, h.rng);
  h.runtime.orphan_step(1, h.rng);
  // The node churns out and back in, which resets its session state.
  h.runtime.leave(1);
  ASSERT_TRUE(h.runtime.join(1));
  // Two more starved steps are needed before the source contact.
  h.runtime.orphan_step(1, h.rng);
  EXPECT_FALSE(h.overlay().has_parent(1));
  h.runtime.orphan_step(1, h.rng);
  EXPECT_FALSE(h.overlay().has_parent(1));
  h.runtime.orphan_step(1, h.rng);
  EXPECT_EQ(h.overlay().parent(1), kSourceId);
}

Population violated_pair() {
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 5}},
      NodeSpec{2, Constraints{1, 1}},  // will be violated at depth 2
  };
  return p;
}

TEST(NodeRuntimeTest, MaintenanceRespectsPatience) {
  // patience 2: two violated evaluations tolerated, detach on the third.
  Harness h({}, 10, violated_pair(), AlgorithmKind::kHybrid,
            /*patience=*/2);
  Overlay& overlay = h.overlay();
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);  // delay 2 > l=1

  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kDetached);
  EXPECT_FALSE(overlay.has_parent(2));
  EXPECT_EQ(h.runtime.maintenance_detaches(), 1u);
}

TEST(NodeRuntimeTest, MaintenanceStreakResetsWhenHealthy) {
  Harness h({}, 10, violated_pair(), AlgorithmKind::kHybrid,
            /*patience=*/2);
  Overlay& overlay = h.overlay();
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);

  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  // The violation heals (node 2 moves to the source side temporarily).
  overlay.detach(2);
  overlay.detach(1);
  overlay.attach(2, kSourceId);
  // Healthy: the streak resets.
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  overlay.detach(2);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  // Needs three fresh violated evaluations again.
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kStayed);
  EXPECT_EQ(h.runtime.poll_parent(2), PollVerdict::kDetached);
}

}  // namespace
}  // namespace lagover
