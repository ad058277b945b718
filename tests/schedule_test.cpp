// Tests for the communication-schedule data type (§1's formalism).
#include <gtest/gtest.h>

#include <vector>

#include "model/compiled.h"
#include "model/schedule.h"
#include "support/contracts.h"

namespace mg::model {
namespace {

TEST(Schedule, EmptyScheduleBasics) {
  Schedule s;
  EXPECT_EQ(s.round_count(), 0u);
  EXPECT_EQ(s.total_time(), 0u);
  EXPECT_EQ(s.transmission_count(), 0u);
  EXPECT_EQ(s.max_fanout(), 0u);
  EXPECT_TRUE(s.is_telephone());
}

TEST(Schedule, AddGrowsRounds) {
  Schedule s;
  s.add(3, {7, 1, {2, 5}});
  EXPECT_EQ(s.round_count(), 4u);
  EXPECT_EQ(s.total_time(), 4u);  // sent at 3, received at 4
  EXPECT_EQ(s.round(3).size(), 1u);
  EXPECT_TRUE(s.round(0).empty());
}

TEST(Schedule, TotalTimeIgnoresEmptyTrailingRounds) {
  Schedule s(10);
  EXPECT_EQ(s.round_count(), 10u);
  EXPECT_EQ(s.total_time(), 0u);
  s.add(2, {0, 0, {1}});
  EXPECT_EQ(s.total_time(), 3u);
  s.trim();
  EXPECT_EQ(s.round_count(), 3u);
}

TEST(Schedule, ReceiverSetMustBeSortedUniqueNonEmpty) {
  Schedule s;
  EXPECT_THROW(s.add(0, {0, 0, {}}), ContractViolation);
  EXPECT_THROW(s.add(0, {0, 0, {3, 1}}), ContractViolation);
  EXPECT_THROW(s.add(0, {0, 0, {1, 1}}), ContractViolation);
  // The same contract holds for rounds handed over whole.
  for (std::vector<Vertex> bad : {std::vector<Vertex>{},
                                  std::vector<Vertex>{3, 1},
                                  std::vector<Vertex>{1, 1}}) {
    std::vector<Round> rounds(2);
    rounds[1].push_back({0, 0, bad});
    EXPECT_THROW(Schedule{std::move(rounds)}, ContractViolation);
  }
  std::vector<Round> rounds(2);
  rounds[1].push_back({5, 2, {1, 3}});
  const Schedule whole(std::move(rounds));
  EXPECT_EQ(whole.round_count(), 2u);
  EXPECT_EQ(whole.round(1).front().receivers, (std::vector<Vertex>{1, 3}));
}

TEST(Schedule, CountsAndFanout) {
  Schedule s;
  s.add(0, {0, 0, {1, 2, 3}});
  s.add(0, {1, 4, {5}});
  s.add(1, {2, 1, {0, 2}});
  EXPECT_EQ(s.transmission_count(), 3u);
  EXPECT_EQ(s.delivery_count(), 6u);
  EXPECT_EQ(s.max_fanout(), 3u);
  EXPECT_FALSE(s.is_telephone());
}

TEST(Schedule, TelephoneDetection) {
  Schedule s;
  s.add(0, {0, 0, {1}});
  s.add(1, {1, 1, {0}});
  EXPECT_TRUE(s.is_telephone());
  s.add(2, {0, 0, {1, 2}});
  EXPECT_FALSE(s.is_telephone());
}

TEST(Schedule, ToStringMentionsTuples) {
  Schedule s;
  s.add(2, {5, 3, {1, 4}});
  const std::string out = s.to_string();
  EXPECT_NE(out.find("t=2"), std::string::npos);
  EXPECT_NE(out.find("msg 5"), std::string::npos);
  EXPECT_NE(out.find("3 -> {1, 4}"), std::string::npos);
}

TEST(Schedule, EquivalentIgnoresWithinRoundOrder) {
  Schedule a;
  a.add(0, {0, 0, {1}});
  a.add(0, {1, 2, {3}});
  Schedule b;
  b.add(0, {1, 2, {3}});
  b.add(0, {0, 0, {1}});
  EXPECT_TRUE(equivalent(a, b));
}

TEST(Schedule, EquivalentDetectsTimeShift) {
  Schedule a;
  a.add(0, {0, 0, {1}});
  Schedule b;
  b.add(1, {0, 0, {1}});
  EXPECT_FALSE(equivalent(a, b));
}

TEST(Schedule, EquivalentDetectsReceiverDifference) {
  Schedule a;
  a.add(0, {0, 0, {1, 2}});
  Schedule b;
  b.add(0, {0, 0, {1}});
  EXPECT_FALSE(equivalent(a, b));
}

TEST(Schedule, EquivalentToleratesTrailingEmptyRounds) {
  Schedule a;
  a.add(0, {0, 0, {1}});
  Schedule b(5);
  b.add(0, {0, 0, {1}});
  EXPECT_TRUE(equivalent(a, b));
}

TEST(CompiledSchedule, PreservesRoundsAndOrder) {
  Schedule s;
  s.add(0, {4, 0, {1, 2, 3}});
  s.add(0, {5, 1, {0}});
  s.add(2, {6, 2, {0, 3}});
  const CompiledSchedule c = CompiledSchedule::compile(s);
  ASSERT_EQ(c.round_count(), 3u);
  EXPECT_EQ(c.transmission_count(), 3u);
  EXPECT_EQ(c.delivery_count(), 6u);
  ASSERT_EQ(c.round(0).size(), 2u);
  EXPECT_TRUE(c.round(1).empty());
  ASSERT_EQ(c.round(2).size(), 1u);
  // Within-round order and receiver order are exactly the schedule's.
  const auto& first = c.round(0)[0];
  EXPECT_EQ(first.message, 4u);
  EXPECT_EQ(first.sender, 0u);
  const auto receivers = c.receivers(first);
  EXPECT_EQ(std::vector<graph::Vertex>(receivers.begin(), receivers.end()),
            (std::vector<graph::Vertex>{1, 2, 3}));
  const auto& second = c.round(0)[1];
  EXPECT_EQ(second.message, 5u);
  ASSERT_EQ(c.receivers(second).size(), 1u);
  EXPECT_EQ(c.receivers(second)[0], 0u);
  const auto& third = c.round(2)[0];
  EXPECT_EQ(third.sender, 2u);
  EXPECT_EQ(c.receivers(third).size(), 2u);
}

TEST(CompiledSchedule, EmptySchedule) {
  const CompiledSchedule c = CompiledSchedule::compile(Schedule{});
  EXPECT_EQ(c.round_count(), 0u);
  EXPECT_EQ(c.transmission_count(), 0u);
  EXPECT_EQ(c.delivery_count(), 0u);
}

}  // namespace
}  // namespace mg::model
