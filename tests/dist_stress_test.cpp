// Stress battery for the `mg::dist` runtime: many actors, heavy live faults
// and many recovery cycles.  The assertions are
// (1) accounting identities: the RunReport tallies equal both the emergent
//     schedule's own arithmetic and the `dist.*` observability counters,
// (2) determinism: for a fixed seed the emergent execution is bit-identical
//     across reruns, and back-to-back runtimes share no state,
// (3) the recovery control plane keeps those identities under crashes and
//     heavy drops,
// (4) golden digests: a fixed set of runs hashes to digests recorded from
//     an earlier runtime, so the output is pinned across versions and not
//     only between two runs of one build.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/schedule.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "support/fingerprint.h"
#include "support/rng.h"

namespace mg::dist {
namespace {

/// Sum of transmissions / point-to-point deliveries a schedule implies.
struct ScheduleTally {
  std::size_t sends = 0;
  std::size_t deliveries = 0;
};

ScheduleTally tally(const model::Schedule& schedule) {
  ScheduleTally t;
  for (const auto& round : schedule.rounds()) {
    for (const auto& tx : round) {
      ++t.sends;
      t.deliveries += tx.receivers.size();
    }
  }
  return t;
}

TEST(DistStress, ManyActorsAccountingIdentities) {
  const graph::Graph g = graph::grid(8, 8);  // 64 actors

#if MG_OBS_ENABLED
  const obs::Snapshot before = obs::Registry::global().snapshot();
#endif
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown);
  ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;
  ASSERT_TRUE(outcome.run.complete);

  // (1a) RunReport tallies == the emergent schedule's own arithmetic.
  const ScheduleTally emergent = tally(outcome.run.emergent);
  EXPECT_EQ(outcome.run.messages, emergent.sends);
  EXPECT_EQ(outcome.run.deliveries, emergent.deliveries);
  EXPECT_EQ(outcome.run.repair.round_count(), 0u);

#if MG_OBS_ENABLED
  // (1b) RunReport tallies == the dist.* counter deltas this run added.
  const obs::Snapshot after = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("dist.runs"), 1u);
  EXPECT_EQ(delta("dist.rounds"), outcome.run.horizon);
  EXPECT_EQ(delta("dist.messages"), outcome.run.messages);
  EXPECT_EQ(delta("dist.deliveries"), outcome.run.deliveries);
  EXPECT_EQ(delta("dist.control_messages"), 0u);
  EXPECT_EQ(delta("dist.injected_drops"), 0u);
  EXPECT_EQ(delta("dist.crashed_sends"), 0u);
#endif
}

TEST(DistStress, BitIdenticalRerunsForFixedSeed) {
  const graph::Graph g = graph::grid(6, 8);
  fault::FaultPlan plan;
  plan.drop_rate(0.15).seed(21).crash(17, 10);
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    SCOPED_TRACE("bus seed " + std::to_string(seed));
    RuntimeOptions options;
    options.faults = &plan;
    options.seed = seed;
    const DistOutcome a =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    const DistOutcome b =
        run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
    EXPECT_TRUE(model::equivalent(a.run.emergent, b.run.emergent));
    EXPECT_TRUE(model::equivalent(a.run.repair, b.run.repair));
    EXPECT_EQ(a.run.messages, b.run.messages);
    EXPECT_EQ(a.run.deliveries, b.run.deliveries);
    EXPECT_EQ(a.run.control_messages, b.run.control_messages);
    EXPECT_EQ(a.run.recovery_rounds, b.run.recovery_rounds);
    EXPECT_EQ(a.run.injected_drops, b.run.injected_drops);
    EXPECT_DOUBLE_EQ(a.run.coverage, b.run.coverage);
  }
}

TEST(DistStress, RecoveryControlPlaneUnderLiveFaults) {
  // Crash + heavy drops force many digest/grant/data cycles.
  const graph::Graph g = graph::grid(7, 7);
  fault::FaultPlan plan;
  plan.drop_rate(0.25).seed(13).crash(24, 8);

#if MG_OBS_ENABLED
  const obs::Snapshot before = obs::Registry::global().snapshot();
#endif
  RuntimeOptions options;
  options.faults = &plan;
  const DistOutcome outcome =
      run_distributed(g, gossip::Algorithm::kConcurrentUpDown, options);
  // Grid minus one interior vertex stays connected: full closure.
  EXPECT_TRUE(outcome.run.recovered);
  EXPECT_GT(outcome.run.recovery_rounds, 0u);
  EXPECT_GT(outcome.run.control_messages, 0u);

  const ScheduleTally main_tally = tally(outcome.run.emergent);
  const ScheduleTally repair_tally = tally(outcome.run.repair);
  EXPECT_EQ(outcome.run.messages, main_tally.sends + repair_tally.sends);

#if MG_OBS_ENABLED
  const obs::Snapshot after = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("dist.messages"), outcome.run.messages);
  EXPECT_EQ(delta("dist.deliveries"), outcome.run.deliveries);
  EXPECT_EQ(delta("dist.control_messages"), outcome.run.control_messages);
  EXPECT_EQ(delta("dist.recovery.rounds"), outcome.run.recovery_rounds);
  EXPECT_EQ(delta("dist.injected_drops"), outcome.run.injected_drops);
  EXPECT_EQ(delta("dist.crashed_sends"), outcome.run.crashed_sends);
  EXPECT_EQ(delta("dist.lost_receives"), outcome.run.lost_receives);
#endif
}

TEST(DistStress, RepeatedRunsShareNothing) {
  // Back-to-back runs on one graph must not leak state between runtimes
  // (each builds its own bus and actors).
  const graph::Graph g = graph::grid(5, 6);
  model::Schedule reference;
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const DistOutcome outcome =
        run_distributed(g, gossip::Algorithm::kTelephone);
    ASSERT_TRUE(outcome.verify.match) << outcome.verify.detail;
    if (iteration == 0) {
      reference = outcome.run.emergent;
    } else {
      EXPECT_TRUE(model::equivalent(reference, outcome.run.emergent));
    }
  }
}


// ---- golden RunReport digests ---------------------------------------------

/// Streams every trace event a run emits into one fingerprint.
class FingerprintSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    hash.update(e.kind.size());
    for (const char c : e.kind) hash.update(static_cast<unsigned char>(c));
    for (const std::uint64_t field :
         {e.time, e.node, e.message, e.peer, e.fanout, e.trace, e.cause}) {
      hash.update(field);
    }
  }

  Fingerprint64 hash;
};

void feed(Fingerprint64& h, const model::Schedule& schedule) {
  h.update(schedule.round_count());
  for (const auto& round : schedule.rounds()) {
    h.update(round.size());
    for (const auto& tx : round) {
      h.update(tx.sender);
      h.update(tx.message);
      h.update(tx.receivers.size());
      for (const graph::Vertex r : tx.receivers) h.update(r);
    }
  }
}

void feed(Fingerprint64& h, const std::vector<DynamicBitset>& holds) {
  h.update(holds.size());
  for (const DynamicBitset& b : holds) {
    for (const std::uint64_t w : b.words()) h.update(w);
  }
}

/// Everything a run reports, plus the trace-event stream's own digest.
std::uint64_t report_digest(const RunReport& r, std::uint64_t events) {
  Fingerprint64 h;
  feed(h, r.emergent);
  feed(h, r.repair);
  h.update(r.causal.size());
  for (const CausalLink& link : r.causal) {
    for (const std::uint64_t field :
         {link.id, link.parent, static_cast<std::uint64_t>(link.kind),
          std::uint64_t{link.round}, std::uint64_t{link.sender},
          std::uint64_t{link.message}, std::uint64_t{link.fanout}}) {
      h.update(field);
    }
  }
  for (const std::size_t count :
       {r.horizon, r.recovery_rounds, r.messages, r.deliveries,
        r.control_messages, r.injected_drops, r.crashed_sends,
        r.skipped_sends, r.lost_receives}) {
    h.update(count);
  }
  h.update(r.complete);
  h.update(r.recovered);
  h.update(std::bit_cast<std::uint64_t>(r.coverage));
  h.update(r.crashed.size());
  for (const graph::Vertex v : r.crashed) h.update(v);
  h.update(r.missing.size());
  for (const std::size_t m : r.missing) h.update(m);
  feed(h, r.main_holds);
  feed(h, r.final_holds);
  h.update(events);
  return h.digest();
}

graph::Graph seeded_cubic(graph::Vertex n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::random_regular_configuration(n, 3, rng);
}

struct GoldenCase {
  std::string name;
  graph::Graph graph;
  gossip::Algorithm algorithm;
  fault::FaultPlan plan;
  std::uint64_t digest = 0;  ///< recorded from an earlier runtime
};

std::vector<GoldenCase> golden_cases() {
  using gossip::Algorithm;
  return {
      // The faulty_dist shape: seeded cubic graphs, 1% drops, recovery on.
      {"cubic32/drop", seeded_cubic(32, 32), Algorithm::kConcurrentUpDown,
       fault::FaultPlan().drop_rate(0.01).seed(1),
       0x47f7651830ca0a2cULL},
      {"cubic128/drop", seeded_cubic(128, 128), Algorithm::kConcurrentUpDown,
       fault::FaultPlan().drop_rate(0.01).seed(2),
       0xb6235a9832d3e5b8ULL},
      {"cubic256/drop", seeded_cubic(256, 256), Algorithm::kConcurrentUpDown,
       fault::FaultPlan().drop_rate(0.01).seed(3),
       0x0be624f3821d94b9ULL},
      // Two crashes cut the cycle into two arcs: partial closure only.
      {"cycle24/crash-partition", graph::cycle(24),
       Algorithm::kConcurrentUpDown,
       fault::FaultPlan().drop_rate(0.05).seed(4).crash(6, 4).crash(18, 4),
       0x91185c351bb00f1fULL},
      // Per-edge delays with the timetable rule (UpDown has no online rule).
      {"grid6x6/delay/timetable", graph::grid(6, 6), Algorithm::kUpDown,
       fault::FaultPlan()
           .drop_rate(0.02)
           .seed(5)
           .delay(0, 1, 2)
           .delay(14, 15, 1)
           .delay(20, 26, 3),
       0xdc65bebb215bbdf0ULL},
      {"petersen/simple/drop", graph::petersen(), Algorithm::kSimple,
       fault::FaultPlan().drop_rate(0.1).seed(7), 0xcf7ef98099783604ULL},
      {"grid7x7/telephone/crash+drop", graph::grid(7, 7),
       Algorithm::kTelephone,
       fault::FaultPlan().drop_rate(0.1).seed(8).crash(24, 8),
       0xb63276833b2529d1ULL},
  };
}

TEST(DistGolden, RunReportDigestsArePinned) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    FingerprintSink sink;
    RuntimeOptions options;
    options.faults = &c.plan;
    options.sink = &sink;
    const DistOutcome outcome = run_distributed(c.graph, c.algorithm, options);
    const std::uint64_t digest =
        report_digest(outcome.run, sink.hash.digest());
    EXPECT_EQ(digest, c.digest)
        << c.name << ": digest 0x" << std::hex << digest << std::dec
        << " (recovery rounds " << outcome.run.recovery_rounds << ", drops "
        << outcome.run.injected_drops << ", skipped "
        << outcome.run.skipped_sends << ", control "
        << outcome.run.control_messages << ", crashed "
        << outcome.run.crashed.size() << ", coverage "
        << outcome.run.coverage << ")";
  }
}

}  // namespace
}  // namespace mg::dist
