// Tests for the simulated network substrate: delivery, latency models,
// traffic accounting, drops.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"

namespace lagover::net {
namespace {

TEST(LatencyModelTest, ConstantAlwaysSame) {
  ConstantLatency model(0.25);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.latency(0, 1, rng), 0.25);
  EXPECT_DOUBLE_EQ(model.latency(5, 9, rng), 0.25);
}

TEST(LatencyModelTest, UniformWithinBounds) {
  UniformLatency model(0.1, 0.2);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const double l = model.latency(0, 1, rng);
    EXPECT_GE(l, 0.1);
    EXPECT_LT(l, 0.2);
  }
}

TEST(LatencyModelTest, CoordinateSymmetricAndTriangle) {
  CoordinateLatency model(10, 0.01, 1.0, 42);
  Rng rng(3);
  for (Address a = 0; a < 10; ++a)
    for (Address b = 0; b < 10; ++b) {
      EXPECT_DOUBLE_EQ(model.latency(a, b, rng), model.latency(b, a, rng));
      for (Address c = 0; c < 10; ++c) {
        // base + d(a,c) <= 2*base + d(a,b) + d(b,c): triangle holds up
        // to the per-message base cost.
        EXPECT_LE(model.latency(a, c, rng),
                  model.latency(a, b, rng) + model.latency(b, c, rng) + 0.01);
      }
    }
}

TEST(NetworkTest, DeliversToRegisteredHandlerAfterLatency) {
  Simulator sim;
  Network<std::string> network(sim, std::make_unique<ConstantLatency>(0.5), 1);
  std::vector<std::pair<Address, std::string>> received;
  network.register_node(2, [&](Address from, const std::string& msg) {
    received.emplace_back(from, msg);
  });
  network.send(1, 2, "hello");
  EXPECT_TRUE(received.empty());  // not yet delivered
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(received[0].second, "hello");
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
}

TEST(NetworkTest, DropsWhenNoHandler) {
  Simulator sim;
  Network<int> network(sim, std::make_unique<ConstantLatency>(0.1), 1);
  network.send(1, 99, 42);
  sim.run();
  EXPECT_EQ(network.dropped(), 1u);
}

TEST(NetworkTest, DropsWhenHandlerDeregisteredMidFlight) {
  Simulator sim;
  Network<int> network(sim, std::make_unique<ConstantLatency>(1.0), 1);
  int received = 0;
  network.register_node(2, [&](Address, int) { ++received; });
  network.send(1, 2, 7);
  network.deregister_node(2);  // crash before delivery
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.dropped(), 1u);
}

TEST(NetworkTest, TrafficCountersTrackMessagesAndBytes) {
  Simulator sim;
  Network<int> network(sim, std::make_unique<ConstantLatency>(0.1), 1);
  network.register_node(2, [](Address, int) {});
  network.send(1, 2, 1, 100);
  network.send(1, 2, 2, 50);
  sim.run();
  EXPECT_EQ(network.counters(1).messages_sent, 2u);
  EXPECT_EQ(network.counters(1).bytes_sent, 150u);
  EXPECT_EQ(network.counters(2).messages_received, 2u);
  EXPECT_EQ(network.counters(2).bytes_received, 150u);
  EXPECT_EQ(network.total_messages(), 2u);
}

TEST(NetworkTest, MessagesToSelfStillGoThroughTheNetwork) {
  Simulator sim;
  Network<int> network(sim, std::make_unique<ConstantLatency>(0.2), 1);
  int received = 0;
  network.register_node(1, [&](Address, int) { ++received; });
  network.send(1, 1, 5);
  sim.run();
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace lagover::net
