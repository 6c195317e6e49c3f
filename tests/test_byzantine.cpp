// Byzantine-layer tests: deterministic adversary role assignment and
// per-class behavior (AdversaryBook), the protocol's claimed-delay
// interposition hook, the suspicion ladder (escalation, epoch fencing,
// persistence across re-incarnations), and correlated failure domains.
// The engine-level guarantees (an empty adversary spec plus empty
// domains is byte-identical to the plain path; the defense ladder
// quarantines delay-liars where the undefended run degrades) run on
// both schedulers in test_conformance.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/greedy.hpp"
#include "fault/byzantine.hpp"
#include "fault/domains.hpp"
#include "fault/fault_injector.hpp"
#include "health/suspicion.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using fault::AdversaryBook;
using fault::AdversaryClass;
using fault::ByzantineSpec;
using fault::FailureDomain;
using fault::FailureDomains;
using health::DefenseConfig;
using health::SuspicionBook;
using health::TrustState;

// --- adversary book ---------------------------------------------------

TEST(AdversaryBookTest, EmptySpecIsAllHonest) {
  const AdversaryBook book(ByzantineSpec{}, 100);
  EXPECT_TRUE(book.empty());
  for (NodeId id = 0; id < 100; ++id)
    EXPECT_EQ(book.role(id), AdversaryClass::kHonest);
  EXPECT_EQ(book.count(AdversaryClass::kDelayLiar), 0u);
}

TEST(AdversaryBookTest, RoleAssignmentIsDeterministicAndCalibrated) {
  ByzantineSpec spec;
  spec.delay_liar_fraction = 0.1;
  spec.fanout_liar_fraction = 0.1;
  spec.free_rider_fraction = 0.1;
  spec.flapper_fraction = 0.1;
  const std::size_t n = 2000;
  const AdversaryBook book(spec, n);
  const AdversaryBook again(spec, n);
  EXPECT_FALSE(book.empty());
  for (NodeId id = 0; id < n; ++id)
    EXPECT_EQ(book.role(id), again.role(id)) << "role differs at " << id;
  // Each 10% class bucket lands near 200 of 2000 consumers.
  for (auto cls : {AdversaryClass::kDelayLiar, AdversaryClass::kFanoutLiar,
                   AdversaryClass::kFreeRider, AdversaryClass::kFlapper}) {
    EXPECT_GT(book.count(cls), 120u) << to_string(cls);
    EXPECT_LT(book.count(cls), 280u) << to_string(cls);
  }
  // A different salt picks a different liar set.
  ByzantineSpec salted = spec;
  salted.salt ^= 0x9e3779b97f4a7c15ull;
  const AdversaryBook other(salted, n);
  std::size_t moved = 0;
  for (NodeId id = 0; id < n; ++id)
    if (book.role(id) != other.role(id)) ++moved;
  EXPECT_GT(moved, 0u);
}

TEST(AdversaryBookTest, SourceIsAlwaysHonest) {
  ByzantineSpec spec;
  spec.delay_liar_fraction = 1.0;
  const AdversaryBook book(spec, 50);
  EXPECT_EQ(book.role(kSourceId), AdversaryClass::kHonest);
  EXPECT_EQ(book.count(AdversaryClass::kDelayLiar), 49u);
}

TEST(AdversaryBookTest, ClaimedValuesFollowRoles) {
  ByzantineSpec spec;
  spec.delay_liar_fraction = 0.5;
  spec.delay_understatement = 2;
  const AdversaryBook book(spec, 200);
  NodeId liar = kNoNode;
  NodeId honest = kNoNode;
  for (NodeId id = 1; id < 200; ++id) {
    if (book.role(id) == AdversaryClass::kDelayLiar && liar == kNoNode)
      liar = id;
    if (book.role(id) == AdversaryClass::kHonest && honest == kNoNode)
      honest = id;
  }
  ASSERT_NE(liar, kNoNode);
  ASSERT_NE(honest, kNoNode);
  EXPECT_EQ(book.claimed_delay(liar, 5), 3);   // 5 - understatement
  EXPECT_EQ(book.claimed_delay(liar, 2), 1);   // floored at 1
  EXPECT_EQ(book.claimed_delay(honest, 5), 5);
  EXPECT_EQ(book.claimed_delay(kSourceId, 0), 0);
}

TEST(AdversaryBookTest, FanoutLiarAdvertisesPhantomCapacity) {
  ByzantineSpec spec;
  spec.fanout_liar_fraction = 0.5;
  const AdversaryBook book(spec, 200);
  NodeId liar = kNoNode;
  for (NodeId id = 1; id < 200 && liar == kNoNode; ++id)
    if (book.role(id) == AdversaryClass::kFanoutLiar) liar = id;
  ASSERT_NE(liar, kNoNode);
  EXPECT_GE(book.claimed_free_fanout(liar, 0), 1);
  EXPECT_TRUE(book.rejects_child(liar));
  EXPECT_FALSE(book.withholds_feed(liar));
  EXPECT_FALSE(book.rejects_child(kSourceId));
}

TEST(AdversaryBookTest, FlapperCyclesOnItsDutySchedule) {
  ByzantineSpec spec;
  spec.flapper_fraction = 0.5;
  spec.flap_period = 10.0;
  spec.flap_duty = 0.5;
  const AdversaryBook book(spec, 100);
  NodeId flapper = kNoNode;
  NodeId honest = kNoNode;
  for (NodeId id = 1; id < 100; ++id) {
    if (book.role(id) == AdversaryClass::kFlapper && flapper == kNoNode)
      flapper = id;
    if (book.role(id) == AdversaryClass::kHonest && honest == kNoNode)
      honest = id;
  }
  ASSERT_NE(flapper, kNoNode);
  ASSERT_NE(honest, kNoNode);
  // Over one full period the flapper is down for ~the off-duty half.
  int down = 0;
  for (int tick = 0; tick < 100; ++tick) {
    const SimTime t = static_cast<double>(tick) * 0.1;
    if (book.flapping_down(flapper, t)) {
      ++down;
      EXPECT_GT(book.flap_remaining(flapper, t), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(book.flap_remaining(flapper, t), 0.0);
    }
    EXPECT_FALSE(book.flapping_down(honest, t));
  }
  EXPECT_GT(down, 30);
  EXPECT_LT(down, 70);
}

// --- protocol claimed-delay hook --------------------------------------

TEST(ProtocolClaimTest, ClaimHookInterposesRemoteDelaysOnly) {
  Population p;
  p.source_fanout = 2;
  p.consumers = {NodeSpec{1, Constraints{2, 2}},
                 NodeSpec{2, Constraints{2, 4}}};
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  GreedyProtocol protocol;
  // No hook: claims are ground truth.
  EXPECT_EQ(protocol.claimed_delay(overlay, 1), overlay.delay_at(1));
  EXPECT_EQ(protocol.claimed_delay(overlay, 2), overlay.delay_at(2));
  // Node 1 understates by 1; the source's claim is never interposed.
  protocol.set_delay_claim([](NodeId node, Delay truth) {
    return node == 1 ? truth - 1 : truth;
  });
  EXPECT_EQ(protocol.claimed_delay(overlay, 1), overlay.delay_at(1) - 1);
  EXPECT_EQ(protocol.claimed_delay(overlay, 2), overlay.delay_at(2));
  EXPECT_EQ(protocol.claimed_delay(overlay, kSourceId),
            overlay.delay_at(kSourceId));
}

// --- suspicion ladder -------------------------------------------------

DefenseConfig enabled_defense() {
  DefenseConfig config;
  config.enabled = true;
  return config;
}

TEST(SuspicionBookTest, LadderEscalatesWithEvidence) {
  SuspicionBook book(10, enabled_defense());
  EXPECT_TRUE(book.enabled());
  EXPECT_EQ(book.state(3), TrustState::kTrusted);
  EXPECT_EQ(book.report(3, 1.0, 1, "test"), TrustState::kTrusted);
  EXPECT_EQ(book.report(3, 1.0, 1, "test"), TrustState::kProbation);
  EXPECT_FALSE(book.barred(3));
  EXPECT_EQ(book.report(3, 3.0, 1, "test"), TrustState::kQuarantined);
  EXPECT_TRUE(book.barred(3));
  EXPECT_EQ(book.report(3, 7.0, 1, "test"), TrustState::kBlacklisted);
  EXPECT_DOUBLE_EQ(book.score(3), 12.0);
  EXPECT_EQ(book.barred_nodes(), std::vector<NodeId>{3});
  EXPECT_EQ(book.probations(), 1u);
  EXPECT_EQ(book.quarantines(), 1u);
  EXPECT_EQ(book.blacklists(), 1u);
}

TEST(SuspicionBookTest, SourceIsNeverSuspected) {
  SuspicionBook book(10, enabled_defense());
  book.report(kSourceId, 100.0, 1, "test");
  EXPECT_EQ(book.state(kSourceId), TrustState::kTrusted);
  EXPECT_FALSE(book.barred(kSourceId));
}

TEST(SuspicionBookTest, StaleEpochReportsAreFenced) {
  SuspicionBook book(10, enabled_defense());
  book.note_epoch(4, 3);
  book.report(4, 2.0, 2, "stale");  // older incarnation: void
  EXPECT_DOUBLE_EQ(book.score(4), 0.0);
  EXPECT_EQ(book.fenced_reports(), 1u);
  book.report(4, 2.0, 3, "current");
  EXPECT_DOUBLE_EQ(book.score(4), 2.0);
  // A newer epoch advances the fence and still counts.
  book.report(4, 1.0, 5, "newer");
  EXPECT_DOUBLE_EQ(book.score(4), 3.0);
  book.report(4, 1.0, 4, "now stale");
  EXPECT_DOUBLE_EQ(book.score(4), 3.0);
  EXPECT_EQ(book.fenced_reports(), 2u);
}

TEST(SuspicionBookTest, ScoreSurvivesReIncarnation) {
  // A flapper cannot launder suspicion by restarting: the accrued score
  // and ladder state persist across note_epoch.
  SuspicionBook book(10, enabled_defense());
  book.report(2, 5.0, 1, "test");
  ASSERT_EQ(book.state(2), TrustState::kQuarantined);
  book.note_epoch(2, 2);
  EXPECT_EQ(book.state(2), TrustState::kQuarantined);
  EXPECT_DOUBLE_EQ(book.score(2), 5.0);
  book.report(2, 7.0, 2, "test");
  EXPECT_EQ(book.state(2), TrustState::kBlacklisted);
  book.note_epoch(2, 3);
  EXPECT_TRUE(book.barred(2));  // blacklist is permanent
}

TEST(SuspicionBookTest, ReportOnceCountsPerCausePerEpoch) {
  SuspicionBook book(10, enabled_defense());
  book.report_once(5, 1.5, 1, "implausible_delay");
  book.report_once(5, 1.5, 1, "implausible_delay");
  EXPECT_DOUBLE_EQ(book.score(5), 1.5);
  book.report_once(5, 1.0, 1, "another_cause");
  EXPECT_DOUBLE_EQ(book.score(5), 2.5);
  // A new incarnation may re-earn the same once-cause.
  book.note_epoch(5, 2);
  book.report_once(5, 1.5, 2, "implausible_delay");
  EXPECT_DOUBLE_EQ(book.score(5), 4.0);
}

// --- correlated failure domains ---------------------------------------

TEST(DomainsTest, HashedMembersAreDeterministicAndCalibrated) {
  const auto members =
      FailureDomains::hashed_members("rack-a", 400, 0.25, 42);
  const auto again = FailureDomains::hashed_members("rack-a", 400, 0.25, 42);
  EXPECT_EQ(members, again);
  EXPECT_GT(members.size(), 60u);
  EXPECT_LT(members.size(), 140u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(std::count(members.begin(), members.end(), kSourceId), 0);
  const auto other =
      FailureDomains::hashed_members("rack-b", 400, 0.25, 42);
  EXPECT_NE(members, other);
}

TEST(DomainsTest, CrashWindowsTakeTheWholeDomainDown) {
  FailureDomains domains;
  domains.add(FailureDomain{
      "rack-a", {1, 2, 3}, {{10.0, 20.0, fault::DomainFault::kCrash}}});
  EXPECT_DOUBLE_EQ(domains.crash_outage(1, 15.0), 5.0);
  EXPECT_DOUBLE_EQ(domains.crash_outage(3, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(domains.crash_outage(4, 15.0), 0.0);  // not a member
  EXPECT_DOUBLE_EQ(domains.crash_outage(1, 25.0), 0.0);  // window over
  EXPECT_TRUE(domains.any_active(15.0));
  EXPECT_FALSE(domains.any_active(25.0));
  EXPECT_DOUBLE_EQ(domains.last_end(), 20.0);
}

TEST(DomainsTest, PartitionWindowsCutCrossDomainLinksOnly) {
  FailureDomains domains;
  domains.add(FailureDomain{
      "rack-a", {1, 2}, {{0.0, 10.0, fault::DomainFault::kPartition}}});
  EXPECT_TRUE(domains.partitioned(1, 5.0));
  EXPECT_FALSE(domains.partitioned(3, 5.0));
  EXPECT_TRUE(domains.reachable(1, 2, 5.0));    // both inside
  EXPECT_FALSE(domains.reachable(1, 3, 5.0));   // across the cut
  EXPECT_FALSE(domains.reachable(1, kSourceId, 5.0));
  EXPECT_TRUE(domains.reachable(1, 3, 10.0));   // window closed
  EXPECT_DOUBLE_EQ(domains.crash_outage(1, 5.0), 0.0);  // not a crash
}

}  // namespace
}  // namespace lagover
