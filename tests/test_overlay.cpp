// Unit tests for the Overlay forest structure (parents, children, roots,
// delays, online state, attach/detach preconditions, audit invariants).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/overlay.hpp"

namespace lagover {
namespace {

Population small_population() {
  Population p;
  p.source_fanout = 2;
  p.consumers = {
      NodeSpec{1, Constraints{2, 1}}, NodeSpec{2, Constraints{1, 2}},
      NodeSpec{3, Constraints{0, 3}}, NodeSpec{4, Constraints{1, 2}},
      NodeSpec{5, Constraints{2, 4}},
  };
  return p;
}

TEST(OverlayTest, InitialStateIsAllParentlessAndOnline) {
  Overlay overlay(small_population());
  EXPECT_EQ(overlay.consumer_count(), 5u);
  EXPECT_EQ(overlay.node_count(), 6u);
  EXPECT_EQ(overlay.online_count(), 5u);
  for (NodeId id = 1; id <= 5; ++id) {
    EXPECT_EQ(overlay.parent(id), kNoNode);
    EXPECT_TRUE(overlay.children(id).empty());
    EXPECT_TRUE(overlay.online(id));
    EXPECT_FALSE(overlay.satisfied(id));
  }
  overlay.audit();
}

TEST(OverlayTest, SourceSpecUsesPopulationFanout) {
  Overlay overlay(small_population());
  EXPECT_EQ(overlay.fanout_of(kSourceId), 2);
  EXPECT_EQ(overlay.free_fanout(kSourceId), 2);
  EXPECT_EQ(overlay.root(kSourceId), kSourceId);
  EXPECT_EQ(overlay.delay_at(kSourceId), 0);
}

TEST(OverlayTest, AttachBuildsChainWithDepthEqualsDelay) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 2);
  EXPECT_EQ(overlay.parent(2), 1u);
  EXPECT_EQ(overlay.root(3), kSourceId);
  EXPECT_EQ(overlay.delay_at(1), 1);
  EXPECT_EQ(overlay.delay_at(2), 2);
  EXPECT_EQ(overlay.delay_at(3), 3);
  EXPECT_TRUE(overlay.connected(3));
  overlay.audit();
}

TEST(OverlayTest, DetachedGroupReportsOptimisticDelay) {
  Overlay overlay(small_population());
  overlay.attach(2, 5);
  overlay.attach(3, 2);
  // Group root 5 is detached: delays assume 5 would sit at depth 1.
  EXPECT_EQ(overlay.root(3), 5u);
  EXPECT_FALSE(overlay.connected(3));
  EXPECT_EQ(overlay.delay_at(5), 1);
  EXPECT_EQ(overlay.delay_at(2), 2);
  EXPECT_EQ(overlay.delay_at(3), 3);
}

TEST(OverlayTest, SatisfactionRequiresConnectionAndDelayBound) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);  // l=1, delay 1: satisfied
  overlay.attach(2, 1);          // l=2, delay 2: satisfied
  overlay.attach(4, 1);          // l=2, delay 2: satisfied
  overlay.attach(3, 2);          // l=3, delay 3: satisfied
  EXPECT_TRUE(overlay.satisfied(1));
  EXPECT_TRUE(overlay.satisfied(2));
  EXPECT_TRUE(overlay.satisfied(3));
  EXPECT_TRUE(overlay.satisfied(4));
  EXPECT_FALSE(overlay.satisfied(5));  // parentless
  EXPECT_FALSE(overlay.all_satisfied());
  EXPECT_EQ(overlay.satisfied_count(), 4u);
  overlay.attach(5, kSourceId);
  EXPECT_TRUE(overlay.all_satisfied());
  EXPECT_DOUBLE_EQ(overlay.satisfied_fraction(), 1.0);
}

TEST(OverlayTest, SatisfactionViolatedWhenTooDeep) {
  Overlay overlay(small_population());
  overlay.attach(5, kSourceId);
  overlay.attach(2, 5);
  overlay.attach(1, 2);  // l=1 at delay 3
  EXPECT_FALSE(overlay.satisfied(1));
  EXPECT_TRUE(overlay.satisfied(2));
}

TEST(OverlayTest, CanAttachRejectsFanoutOverflow) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(5, kSourceId);
  EXPECT_EQ(overlay.free_fanout(kSourceId), 0);
  EXPECT_FALSE(overlay.can_attach(2, kSourceId));
  // Zero-fanout node never hosts.
  EXPECT_FALSE(overlay.can_attach(2, 3));
}

TEST(OverlayTest, CanAttachRejectsCycles) {
  Overlay overlay(small_population());
  overlay.attach(2, 1);
  overlay.attach(3, 2);
  // 1 is the root of {1,2,3}; attaching 1 under its own descendant would
  // create a cycle.
  EXPECT_FALSE(overlay.can_attach(1, 2));
  EXPECT_TRUE(overlay.in_subtree(3, 1));
  EXPECT_FALSE(overlay.in_subtree(1, 3));
}

TEST(OverlayTest, CanAttachRejectsNodesThatAlreadyHaveParents) {
  Overlay overlay(small_population());
  overlay.attach(2, 1);
  EXPECT_FALSE(overlay.can_attach(2, 5));
}

TEST(OverlayTest, DetachKeepsSubtreeWithChild) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 2);
  overlay.detach(2);
  EXPECT_EQ(overlay.parent(2), kNoNode);
  EXPECT_EQ(overlay.parent(3), 2u);
  EXPECT_EQ(overlay.root(3), 2u);
  EXPECT_FALSE(overlay.connected(3));
  EXPECT_EQ(overlay.free_fanout(1), 2);
  overlay.audit();
}

TEST(OverlayTest, SetOfflineDetachesAndOrphansChildren) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(4, 1);
  overlay.set_offline(1);
  EXPECT_FALSE(overlay.online(1));
  EXPECT_EQ(overlay.online_count(), 4u);
  EXPECT_EQ(overlay.parent(2), kNoNode);
  EXPECT_EQ(overlay.parent(4), kNoNode);
  EXPECT_EQ(overlay.free_fanout(kSourceId), 2);
  overlay.audit();
  // Offline nodes can't be attach targets or children.
  EXPECT_FALSE(overlay.can_attach(2, 1));
  EXPECT_FALSE(overlay.can_attach(1, kSourceId));
  overlay.set_online(1);
  EXPECT_TRUE(overlay.can_attach(1, kSourceId));
}

TEST(OverlayTest, SubtreeEnumeratesAllDescendants) {
  Overlay overlay(small_population());
  overlay.attach(2, 1);
  overlay.attach(4, 1);
  overlay.attach(3, 2);
  const auto nodes = overlay.subtree(1);
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes.front(), 1u);
}

TEST(OverlayTest, GreedyOrderViolationDetection) {
  Overlay overlay(small_population());
  overlay.attach(5, kSourceId);  // source edges never violate
  EXPECT_EQ(overlay.first_greedy_order_violation(), kNoNode);
  overlay.attach(1, 5);  // l_5=4 > l_1=1: violation
  EXPECT_EQ(overlay.first_greedy_order_violation(), 1u);
}

TEST(OverlayTest, CountersTrackMutations) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.detach(2);
  overlay.set_offline(1);  // detaches 1 from the source
  overlay.set_offline(1);  // already offline: not counted
  overlay.set_online(1);
  EXPECT_EQ(overlay.counters().attaches, 2u);
  EXPECT_EQ(overlay.counters().detaches, 2u);
  EXPECT_EQ(overlay.counters().offlines, 1u);
  EXPECT_EQ(overlay.counters().onlines, 1u);
}

TEST(OverlayTest, OutletReportsEveryChangeOnce) {
  std::vector<std::string> log;
  Overlay overlay(small_population());
  overlay.set_outlet([&log](OverlayChange change, NodeId subject,
                            NodeId parent) {
    static const char* const kNames[] = {"attach", "detach", "offline",
                                         "online"};
    log.push_back(std::string(kNames[static_cast<int>(change)]) + " " +
                  std::to_string(subject) + " " +
                  (parent == kNoNode ? "-" : std::to_string(parent)));
  });
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.set_offline(1);  // detaches 1 from the source, then orphans 2
  overlay.set_offline(1);  // already offline: no change, no report
  overlay.set_online(1);
  overlay.set_online(1);
  EXPECT_EQ(log, (std::vector<std::string>{"attach 1 0", "attach 2 1",
                                           "detach 1 0", "detach 2 1",
                                           "offline 1 -", "online 1 -"}));
}

TEST(OverlayTest, CopiesDropTheOutletAndMovesKeepIt) {
  int calls = 0;
  const auto count = [&calls](OverlayChange /*change*/, NodeId /*subject*/,
                              NodeId /*parent*/) { ++calls; };
  Overlay overlay(small_population());
  overlay.set_outlet(count);
  overlay.attach(1, kSourceId);
  ASSERT_EQ(calls, 1);

  Overlay copy(overlay);
  Overlay assigned(small_population());
  assigned.set_outlet(count);
  assigned = overlay;
  for (Overlay* target : {&copy, &assigned}) {
    EXPECT_EQ(target->delay_at(1), 1);  // the index travels with the copy
    target->attach(2, 1);
    target->detach(2);
    target->set_offline(2);
    target->set_online(2);
  }
  EXPECT_EQ(calls, 1);

  Overlay moved(std::move(overlay));
  moved.attach(2, 1);
  EXPECT_EQ(calls, 2);
  moved.set_outlet(nullptr);
  moved.detach(2);
  EXPECT_EQ(calls, 2);
}

TEST(OverlayTest, ValidateRejectsBadPopulations) {
  Population bad;
  bad.source_fanout = 1;
  bad.consumers = {NodeSpec{2, Constraints{1, 1}}};  // ids must start at 1
  EXPECT_THROW(Overlay{bad}, InvalidArgument);

  Population bad_latency;
  bad_latency.source_fanout = 1;
  bad_latency.consumers = {NodeSpec{1, Constraints{1, 0}}};
  EXPECT_THROW(Overlay{bad_latency}, InvalidArgument);

  Population bad_fanout;
  bad_fanout.source_fanout = 1;
  bad_fanout.consumers = {NodeSpec{1, Constraints{-1, 1}}};
  EXPECT_THROW(Overlay{bad_fanout}, InvalidArgument);
}

TEST(OverlayTest, AsciiRenderingMentionsAllRoots) {
  Overlay overlay(small_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 5);
  const std::string art = overlay.to_ascii();
  EXPECT_NE(art.find("source tree"), std::string::npos);
  EXPECT_NE(art.find("detached group (root 5)"), std::string::npos);
}

}  // namespace
}  // namespace lagover
