// Tests for the population text format.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"
#include "workload/constraints.hpp"
#include "workload/population_io.hpp"

namespace lagover {
namespace {

TEST(PopulationIoTest, ParsesPeersAndShorthand) {
  const Population p = parse_population_text(
      "# an example\n"
      "source 3\n"
      "peer 2 1\n"
      "peers 3 1 4   # three identical peers\n"
      "peer 0 9\n");
  EXPECT_EQ(p.source_fanout, 3);
  ASSERT_EQ(p.consumers.size(), 5u);
  EXPECT_EQ(p.consumers[0].constraints, (Constraints{2, 1}));
  EXPECT_EQ(p.consumers[1].constraints, (Constraints{1, 4}));
  EXPECT_EQ(p.consumers[3].constraints, (Constraints{1, 4}));
  EXPECT_EQ(p.consumers[4].constraints, (Constraints{0, 9}));
  for (std::size_t k = 0; k < p.consumers.size(); ++k)
    EXPECT_EQ(p.consumers[k].id, k + 1);
}

TEST(PopulationIoTest, RoundTripsGeneratedWorkloads) {
  for (auto kind : kAllWorkloads) {
    WorkloadParams params;
    params.peers = 50;
    params.seed = 3;
    const Population original = generate_workload(kind, params);
    const Population parsed =
        parse_population_text(to_population_text(original));
    EXPECT_EQ(parsed.source_fanout, original.source_fanout);
    EXPECT_EQ(parsed.consumers, original.consumers) << to_string(kind);
  }
}

TEST(PopulationIoTest, ShorthandUsedForRuns) {
  Population p;
  p.source_fanout = 1;
  for (NodeId id = 1; id <= 5; ++id)
    p.consumers.push_back(NodeSpec{id, Constraints{3, 2}});
  const std::string text = to_population_text(p);
  EXPECT_NE(text.find("peers 5 3 2"), std::string::npos);
}

TEST(PopulationIoTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_population_text("peer 1 1\n"), InvalidArgument);
  EXPECT_THROW(parse_population_text("source 1\nbogus 2 3\n"),
               InvalidArgument);
  EXPECT_THROW(parse_population_text("source 1\npeer 1\n"), InvalidArgument);
  EXPECT_THROW(parse_population_text("source -1\n"), InvalidArgument);
  // latency 0 fails population validation
  EXPECT_THROW(parse_population_text("source 1\npeer 1 0\n"),
               InvalidArgument);
}

TEST(PopulationIoTest, RejectsMoreConsumersThanTheCountBound) {
  // 2^20 + 1 consumers, in one line or across two: the error names the
  // line that passes the bound.
  const std::pair<const char*, const char*> cases[] = {
      {"source 1\npeers 1048577 1 3\n", "line 2"},
      {"source 1\npeers 1048576 1 3\npeer 1 3\n", "line 3"}};
  for (const auto& [text, line] : cases) {
    try {
      parse_population_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const InvalidArgument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(line), std::string::npos) << message;
      EXPECT_NE(message.find("1048576"), std::string::npos) << message;
    }
  }
}

TEST(PopulationIoTest, FileRoundTrip) {
  Population p;
  p.source_fanout = 2;
  p.consumers = {NodeSpec{1, Constraints{1, 2}},
                 NodeSpec{2, Constraints{0, 3}}};
  const std::string path = "/tmp/lagover_test_population.txt";
  ASSERT_TRUE(save_population(p, path));
  const Population loaded = load_population(path);
  EXPECT_EQ(loaded.consumers, p.consumers);
  EXPECT_THROW(load_population("/nonexistent/nope.txt"), InvalidArgument);
}

TEST(PopulationIoTest, EmptyConsumerListIsValid) {
  const Population p = parse_population_text("source 4\n");
  EXPECT_EQ(p.source_fanout, 4);
  EXPECT_TRUE(p.consumers.empty());
}

}  // namespace
}  // namespace lagover
