// Tests for the paper's main result: algorithm ConcurrentUpDown and its
// components Propagate-Up (Lemma 2) and Propagate-Down (Lemma 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gossip/bounds.h"
#include "gossip/concurrent_updown.h"
#include "gossip/online.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "support/fingerprint.h"
#include "support/rng.h"
#include "test_util.h"
#include "tree/spanning_tree.h"

namespace mg::gossip {
namespace {

Instance fig4_instance() {
  return Instance::from_network(graph::fig4_network());
}

TEST(ConcurrentUpDown, TheoremOneOnFig4) {
  const auto instance = fig4_instance();
  const auto schedule = concurrent_updown(instance);
  test::expect_valid_gossip(instance, schedule);
  EXPECT_EQ(schedule.total_time(), 16u + 3u);  // n + r exactly
}

TEST(ConcurrentUpDown, TheoremOneAcrossFamilies) {
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 4u, 7u, 12u}) {
      const auto g = family.make(knob);
      const auto instance = Instance::from_network(g);
      const auto schedule = concurrent_updown(instance);
      const auto report = test::expect_valid_gossip(instance, schedule);
      ASSERT_TRUE(report.ok) << family.name << " knob=" << knob;
      EXPECT_EQ(schedule.total_time(),
                concurrent_updown_time(g.vertex_count(), instance.radius()))
          << family.name << " knob=" << knob;
    }
  }
}

TEST(PropagateUp, LemmaTwoRootReceivesEverythingOnTime) {
  // Lemma 2: the root receives message 1 at time 1 (U1) and messages
  // 2..n-1 sequentially at times 2..n-1 (U2).
  const auto instance = fig4_instance();
  const auto up = propagate_up(instance);
  const auto root = instance.tree().root();
  std::vector<std::size_t> arrival(16, SIZE_MAX);
  for (std::size_t t = 0; t < up.round_count(); ++t) {
    for (const auto& tx : up.round(t)) {
      for (graph::Vertex r : tx.receivers) {
        if (r == root) arrival[tx.message] = std::min(arrival[tx.message], t + 1);
      }
    }
  }
  for (model::Message m = 1; m < 16; ++m) {
    EXPECT_EQ(arrival[m], m) << "message " << m;
  }
}

TEST(PropagateUp, EveryVertexReceivesItsSubtreeSequentially) {
  // (U1)/(U2) at every vertex: l-message at time 1, r-messages at times
  // i-k+2 .. j-k.
  Rng rng(4242);
  const auto g = graph::random_tree(50, rng);
  const auto instance = Instance(tree::root_tree_graph(g, 0));
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const auto up = propagate_up(instance);

  for (std::size_t t = 0; t < up.round_count(); ++t) {
    for (const auto& tx : up.round(t)) {
      for (graph::Vertex r : tx.receivers) {
        // Who receives message m at time t+1 in the up schedule?
        const auto i = labels.label(r);
        const auto j = labels.subtree_end(r);
        const auto k = tree.level(r);
        ASSERT_TRUE(tx.message >= i && tx.message <= j)
            << "up schedule delivers a non-subtree message";
        if (tx.message == i + 1 && t + 1 == 1) continue;  // (U1)
        EXPECT_EQ(t + 1, tx.message - k) << "(U2) timing";
      }
    }
  }
}

TEST(PropagateUp, LipMessagesLeaveAtTimeZero) {
  const auto instance = fig4_instance();
  const auto up = propagate_up(instance);
  // First children in Fig. 5: 1 (of 0), 2 (of 1), 5 (of 4), 6 (of 5),
  // 9 (of 8), 12 (of 11), 13 (of 12).
  std::vector<graph::Vertex> senders;
  for (const auto& tx : up.round(0)) senders.push_back(tx.sender);
  std::sort(senders.begin(), senders.end());
  EXPECT_EQ(senders,
            (std::vector<graph::Vertex>{1, 2, 5, 6, 9, 12, 13}));
}

TEST(PropagateUp, NoReceiveConflictsInIsolation) {
  // Lemma 2 feasibility: the up schedule alone obeys the model rules.
  const auto instance = fig4_instance();
  const auto up = propagate_up(instance);
  model::ValidatorOptions options;
  options.require_completion = false;
  const auto report = model::validate_schedule(
      instance.tree().as_graph(), up, instance.initial(), options);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(PropagateDown, NoConflictsGivenUpDelivery) {
  // Lemma 3 is conditional on Propagate-Up supplying the b-messages; the
  // merged schedule (Theorem 1) is validated elsewhere.  Here: the down
  // schedule alone must have no send/receive conflicts (rules 1-2), which
  // we check by counting senders and receivers per round.
  const auto instance = fig4_instance();
  const auto down = propagate_down(instance);
  for (std::size_t t = 0; t < down.round_count(); ++t) {
    std::vector<graph::Vertex> senders;
    std::vector<graph::Vertex> receivers;
    for (const auto& tx : down.round(t)) {
      senders.push_back(tx.sender);
      receivers.insert(receivers.end(), tx.receivers.begin(),
                       tx.receivers.end());
    }
    std::sort(senders.begin(), senders.end());
    EXPECT_EQ(std::adjacent_find(senders.begin(), senders.end()),
              senders.end())
        << "duplicate sender at t=" << t;
    std::sort(receivers.begin(), receivers.end());
    EXPECT_EQ(std::adjacent_find(receivers.begin(), receivers.end()),
              receivers.end())
        << "duplicate receiver at t=" << t;
  }
}

TEST(ConcurrentUpDown, UpAndDownOverlapOnlyOnEqualMessages) {
  // Theorem 1's merge argument: whenever a vertex appears as sender in
  // both components at one time, the message is the same.  The merged
  // schedule having one transmission per (t, sender) implies it; validated
  // implicitly by concurrent_updown's internal assertion, re-checked here.
  const auto instance = fig4_instance();
  const auto merged = concurrent_updown(instance);
  for (std::size_t t = 0; t < merged.round_count(); ++t) {
    std::vector<graph::Vertex> senders;
    for (const auto& tx : merged.round(t)) senders.push_back(tx.sender);
    std::sort(senders.begin(), senders.end());
    EXPECT_EQ(std::adjacent_find(senders.begin(), senders.end()),
              senders.end());
  }
}

TEST(ConcurrentUpDown, AblationWithoutLookaheadCreatesConflict) {
  // §3.2's prose: without the time-0 lip send, "there would be a conflict
  // (two different messages sent at the same time to processor 1)".  The
  // validator must reject the merged schedule.
  ConcurrentUpDownOptions options;
  options.lookahead_at_time_zero = false;
  const auto instance = fig4_instance();
  const auto schedule = concurrent_updown(instance, options);
  model::ValidatorOptions vopts;
  const auto report = model::validate_schedule(
      instance.tree().as_graph(), schedule, instance.initial(), vopts);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("receives two messages"), std::string::npos)
      << report.error;
}

TEST(ConcurrentUpDown, OddLineMatchesSectionFourDiscussion) {
  // §4: on the odd line the schedule takes n + r, one above the n + r - 1
  // lower bound.
  for (graph::Vertex m : {1u, 2u, 5u, 10u}) {
    const graph::Vertex n = 2 * m + 1;
    const auto instance = Instance::from_network(graph::path(n));
    EXPECT_EQ(instance.radius(), m);
    const auto schedule = concurrent_updown(instance);
    test::expect_valid_gossip(instance, schedule);
    EXPECT_EQ(schedule.total_time(), n + m);
    EXPECT_EQ(schedule.total_time(), odd_line_lower_bound(n) + 1);
  }
}

TEST(ConcurrentUpDown, ApproxRatioWithinGuarantee) {
  // §4: r <= n/2 and OPT >= n - 1 give a ratio of (n + n/2)/(n - 1),
  // i.e. "at most 1.5 times optimal" asymptotically.
  for (const auto& family : test::families()) {
    const auto g = family.make(9);
    const auto n = g.vertex_count();
    const auto instance = Instance::from_network(g);
    const auto schedule = concurrent_updown(instance);
    const double ratio = static_cast<double>(schedule.total_time()) /
                         static_cast<double>(trivial_lower_bound(n));
    EXPECT_LE(ratio, approx_ratio_bound(n, n / 2) + 1e-9) << family.name;
  }
  // And the asymptotic 1.5 on a large worst-case instance.
  const auto instance = Instance::from_network(graph::cycle(400));
  const double ratio =
      static_cast<double>(concurrent_updown(instance).total_time()) / 399.0;
  EXPECT_LE(ratio, 1.51);
}

TEST(ConcurrentUpDown, RandomTreesBySeedSweep) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<graph::Vertex>(2 + rng.below(60));
    const auto g = graph::random_tree(n, rng);
    const auto instance = Instance::from_network(g);
    const auto schedule = concurrent_updown(instance);
    const auto report = test::expect_valid_gossip(instance, schedule);
    ASSERT_TRUE(report.ok) << "seed=" << seed << " n=" << n;
    EXPECT_EQ(schedule.total_time(), n + instance.radius())
        << "seed=" << seed;
  }
}

TEST(ConcurrentUpDown, TrivialSizes) {
  EXPECT_EQ(concurrent_updown(Instance(tree::RootedTree::from_parents(
                                  0, {graph::kNoVertex})))
                .total_time(),
            0u);
  const auto two =
      Instance(tree::RootedTree::from_parents(0, {graph::kNoVertex, 0}));
  const auto schedule = concurrent_updown(two);
  test::expect_valid_gossip(two, schedule);
  EXPECT_EQ(schedule.total_time(), 3u);  // n + r = 2 + 1
}

TEST(ConcurrentUpDown, CompletionTimesRespectLevels) {
  // Every vertex at level k receives message 0 (the last o-message) at
  // time n + k, so completion time is between n and n + level.
  const auto instance = fig4_instance();
  const auto schedule = concurrent_updown(instance);
  const auto report = test::expect_valid_gossip(instance, schedule);
  ASSERT_TRUE(report.ok);
  for (graph::Vertex v = 0; v < 16; ++v) {
    if (instance.tree().is_root(v)) {
      EXPECT_EQ(report.completion_time[v], 15u);  // all b-messages by n-1
    } else {
      EXPECT_EQ(report.completion_time[v], 16u + instance.tree().level(v));
    }
  }
}

TEST(ConcurrentUpDown, StrictlyFasterThanSimpleBeyondTinyTrees) {
  for (const auto& family : test::families()) {
    const auto g = family.make(8);
    if (g.vertex_count() < 6) continue;
    const auto instance = Instance::from_network(g);
    const std::size_t simple_time =
        2 * static_cast<std::size_t>(instance.vertex_count()) +
        instance.radius() - 3;
    EXPECT_LT(concurrent_updown(instance).total_time(), simple_time)
        << family.name;
  }
}

// ---- Byte identity --------------------------------------------------------
//
// The schedule is pinned exactly: same rounds, same transmission order
// within each round, same receiver lists.  `model::equivalent` ignores the
// order within a round, so these tests compare round for round instead.

/// Digest of every (t, sender, message, receivers) tuple in schedule order.
std::uint64_t schedule_digest(const model::Schedule& schedule) {
  Fingerprint64 fp;
  fp.update(schedule.round_count());
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const auto& tx : schedule.round(t)) {
      fp.update(t);
      fp.update(tx.sender);
      fp.update(tx.message);
      fp.update(tx.receivers.size());
      for (graph::Vertex r : tx.receivers) fp.update(r);
    }
  }
  return fp.digest();
}

/// Round-for-round exact comparison; returns the first difference.
std::string first_difference(const model::Schedule& a,
                             const model::Schedule& b) {
  if (a.round_count() != b.round_count()) {
    return "round counts " + std::to_string(a.round_count()) + " vs " +
           std::to_string(b.round_count());
  }
  for (std::size_t t = 0; t < a.round_count(); ++t) {
    const auto& ra = a.round(t);
    const auto& rb = b.round(t);
    if (ra.size() != rb.size()) {
      return "t=" + std::to_string(t) + ": " + std::to_string(ra.size()) +
             " vs " + std::to_string(rb.size()) + " transmissions";
    }
    for (std::size_t x = 0; x < ra.size(); ++x) {
      if (ra[x].sender != rb[x].sender || ra[x].message != rb[x].message ||
          ra[x].receivers != rb[x].receivers) {
        return "t=" + std::to_string(t) + " position " + std::to_string(x) +
               ": sender " + std::to_string(ra[x].sender) + " vs " +
               std::to_string(rb[x].sender);
      }
    }
  }
  return {};
}

graph::Graph random_cubic(graph::Vertex n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::random_regular_configuration(n, 3, rng);
}

graph::Graph random_tree_graph(graph::Vertex n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::random_tree(n, rng);
}

// The two runners of the send rule (gossip/updown_rule.h) must agree round
// for round: the emitter reads the (D2) arrivals statically from the
// parent's sends, run_online is driven by the arrivals themselves.  The
// rule itself is pinned by GoldenDigests below, paper_invariants_test's
// step windows and the validator.
TEST(ConcurrentUpDownIdentity, MatchesOnlineRoundForRoundOnRandomCubic) {
  for (graph::Vertex n : {4u, 16u, 64u, 128u, 512u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto instance = Instance::from_network(random_cubic(n, seed));
      EXPECT_EQ(first_difference(concurrent_updown(instance),
                                 run_online(instance)),
                "")
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ConcurrentUpDownIdentity, MatchesOnlineRoundForRoundOnRandomTrees) {
  // Seeds 1..30 with n up to 201, and seeds 0..24 with n up to 41.
  struct Batch {
    std::uint64_t first, last, spread;
  };
  for (const Batch batch : {Batch{1, 30, 200}, Batch{0, 24, 40}}) {
    for (std::uint64_t seed = batch.first; seed <= batch.last; ++seed) {
      Rng rng(seed);
      const auto n = static_cast<graph::Vertex>(2 + rng.below(batch.spread));
      const auto g = graph::random_tree(n, rng);
      // Rooting at vertex 0 as well as at the center varies the shapes.
      std::vector<Instance> instances;
      instances.push_back(Instance::from_network(g));
      instances.push_back(Instance(tree::root_tree_graph(g, 0)));
      for (const auto& instance : instances) {
        EXPECT_EQ(first_difference(concurrent_updown(instance),
                                   run_online(instance)),
                  "")
            << "seed=" << seed << " n=" << n;
      }
    }
  }
}

TEST(ConcurrentUpDownIdentity, MatchesOnlineRoundForRoundAcrossFamilies) {
  const auto fig4 = fig4_instance();
  EXPECT_EQ(first_difference(concurrent_updown(fig4), run_online(fig4)), "")
      << "fig4";
  for (const auto& family : test::families()) {
    for (graph::Vertex knob : {3u, 5u, 6u, 8u, 10u, 13u}) {
      const auto instance = Instance::from_network(family.make(knob));
      EXPECT_EQ(first_difference(concurrent_updown(instance),
                                 run_online(instance)),
                "")
          << family.name << " knob=" << knob;
    }
  }
}

struct GoldenCase {
  const char* name;
  graph::Graph (*make)();
  bool lookahead;
  std::uint64_t merged;  ///< digest of concurrent_updown
  std::uint64_t up;      ///< digest of propagate_up
  std::uint64_t down;    ///< digest of propagate_down
};

TEST(ConcurrentUpDownIdentity, GoldenDigests) {
  // Recorded from the original event-list builder (global sort of every
  // send, then fusion); the closed-form emitter must reproduce them bit
  // for bit, including the no-lookahead ablation run_online cannot express.
  const GoldenCase cases[] = {
      {"fig4", [] { return graph::fig4_network(); }, true,
       2002300955314546550ULL, 13668186937186858759ULL,
       6981877154357357354ULL},
      {"fig4_no_lookahead", [] { return graph::fig4_network(); }, false,
       1035417733191545277ULL, 3445128499373688637ULL,
       6981877154357357354ULL},
      {"cubic64_s7", [] { return random_cubic(64, 7); }, true,
       4258819493050958221ULL, 16437199580246743723ULL,
       310627423398568703ULL},
      {"cubic512_s1", [] { return random_cubic(512, 1); }, true,
       17950029104259527543ULL, 2413307332818458943ULL,
       7510882814173869537ULL},
      {"cubic256_s3_no_lookahead", [] { return random_cubic(256, 3); }, false,
       7445195764334247366ULL, 13139875378362060613ULL,
       1527185924642002196ULL},
      {"tree200_s3", [] { return random_tree_graph(200, 3); }, true,
       16511440511090039975ULL, 1189595462709278687ULL,
       3122184708997950975ULL},
      {"tree100_s11_no_lookahead", [] { return random_tree_graph(100, 11); },
       false,
       9311069572475034258ULL, 9661200832210524084ULL,
       6870183937131190443ULL},
      {"grid9x13", [] { return graph::grid(9, 13); }, true,
       8670656146328406479ULL, 2249043700586996669ULL,
       9495961538655529336ULL},
      {"path31", [] { return graph::path(31); }, true,
       4413422491123185260ULL, 6883031493054572466ULL,
       3461147383871852852ULL},
      {"cycle40_no_lookahead", [] { return graph::cycle(40); }, false,
       14559023299090262041ULL, 1129272293360919011ULL,
       16612614345906113171ULL},
  };
  for (const auto& c : cases) {
    const auto instance = Instance::from_network(c.make());
    ConcurrentUpDownOptions options;
    options.lookahead_at_time_zero = c.lookahead;
    EXPECT_EQ(schedule_digest(concurrent_updown(instance, options)), c.merged)
        << c.name << " merged";
    EXPECT_EQ(schedule_digest(propagate_up(instance, options)), c.up)
        << c.name << " up";
    EXPECT_EQ(schedule_digest(propagate_down(instance)), c.down)
        << c.name << " down";
  }
}

}  // namespace
}  // namespace mg::gossip
