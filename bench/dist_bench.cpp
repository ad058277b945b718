// Distributed-runtime benchmark — the machine-readable actor-overhead
// artifact (BENCH_dist.json).
//
// For every named graph x all four gossip algorithms the bench executes the
// same schedule two ways:
//   central  — `sim::simulate` replaying the centrally computed schedule
//              (one loop, no actors, no mailboxes), and
//   dist     — the `mg::dist` actor runtime: n processor actors deciding
//              from local state behind a round-synchronized mailbox bus.
// Each row records the wall time of both executions, the emergent round
// count, and the per-round latency quantiles of the actor runtime from the
// `dist.round_ns` observability histogram — the honest price of
// decentralization relative to the flat replay loop.
//
// A second table, `faulty`, runs the request-path shape at scale: seeded
// random cubic graphs, 1% link drops, recovery on.  Each row reports ns per
// delivery and `replay_over_dist`, the same-run ratio of the flat replay of
// exactly the delivered traffic (emergent main phase plus emergent repair,
// via `sim::simulate` / `simulate_from_holds`) to the actor run — a
// host-independent price of decentralization.  The
// recovery round and control-message counts are deterministic under the
// fixed seeds; the sentinel gates them exactly.
//
// The bench doubles as a regression gate: a row fails (process exits
// nonzero) when the emergent schedule diverges from the central one, the
// run does not complete, a fault-free ConcurrentUpDown execution does not
// span exactly n + r rounds (Theorem 1), or a faulty row's replay does not
// end in the actors' final hold sets.
//
//   dist_bench [--out FILE] [--quick]
//
// --out      output path (default BENCH_dist.json)
// --quick    cycle + Petersen, and faulty n = 256 only (CI-friendly)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/runtime.h"
#include "fault/fault.h"
#include "gossip/solve.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "sim/network_sim.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using namespace mg;

std::uint64_t median(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double per(std::uint64_t ns, std::size_t units) {
  return units == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(units);
}

/// One `faulty` row: ConcurrentUpDown on a seeded random cubic graph with
/// 1% drops and recovery, timed as the median of `trials` runs per
/// executor.  Returns false when the row's gate fails.
bool faulty_row(obs::JsonWriter& w, graph::Vertex n, std::size_t trials) {
  Rng rng(0xd15700 + n);
  const graph::Graph g = graph::random_regular_configuration(n, 3, rng);
  fault::FaultPlan plan;
  plan.drop_rate(0.01).seed(n);
  const gossip::Solution central =
      gossip::solve_gossip(g, gossip::Algorithm::kConcurrentUpDown);
  const std::size_t horizon = central.schedule.round_count();

  const auto run_dist = [&](dist::RunReport& report) {
    dist::RuntimeOptions options;
    options.faults = &plan;
    dist::ActorRuntime runtime(central.instance, g, options);
    runtime.use_online_rule();
    Stopwatch watch;
    report = runtime.run(horizon);
    return static_cast<std::uint64_t>(watch.seconds() * 1e9);
  };

  dist::RunReport run;
  std::vector<std::uint64_t> dist_ns;
  std::vector<std::uint64_t> replay_ns;
  bool replay_ok = true;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    dist_ns.push_back(run_dist(run));
    // The flat loop replays exactly the traffic the actors delivered.
    Stopwatch watch;
    const sim::SimResult main_replay =
        sim::simulate(g, run.emergent, central.instance.initial());
    const sim::SimResult repair_replay =
        sim::simulate_from_holds(g, run.repair, main_replay.final_holds);
    replay_ns.push_back(static_cast<std::uint64_t>(watch.seconds() * 1e9));
    replay_ok = replay_ok && main_replay.final_holds == run.main_holds &&
                repair_replay.final_holds == run.final_holds;
  }
  const std::uint64_t run_ns = median(dist_ns);
  const std::uint64_t replay = median(replay_ns);
  const double replay_over_dist =
      run_ns == 0 ? 0.0
                  : static_cast<double>(replay) / static_cast<double>(run_ns);
  const bool ok = run.complete && replay_ok;

  const std::string name = "cubic/n=" + std::to_string(n) + "/drop=0.01";
  w.begin_object();
  w.field("name", name);
  w.field("n", static_cast<std::uint64_t>(n));
  w.field("r", static_cast<std::uint64_t>(central.instance.radius()));
  w.field("rounds", static_cast<std::uint64_t>(horizon));
  w.field("trials", static_cast<std::uint64_t>(trials));
  w.field("recovery_rounds", static_cast<std::uint64_t>(run.recovery_rounds));
  w.field("control_messages",
          static_cast<std::uint64_t>(run.control_messages));
  w.field("injected_drops", static_cast<std::uint64_t>(run.injected_drops));
  w.field("deliveries", static_cast<std::uint64_t>(run.deliveries));
  w.field("central_ns", replay);
  w.field("dist_serial_ns", run_ns);
  w.field("serial_ns_per_delivery", per(run_ns, run.deliveries));
  w.field("replay_over_dist", replay_over_dist);
  w.field("complete", run.complete);
  w.field("replay_match", replay_ok);
  w.end_object();

  std::printf("%-26s recovery=%3zu control=%7zu dist=%7.1f ns/delivery "
              "replay/dist=%.3f %s\n",
              name.c_str(), run.recovery_rounds, run.control_messages,
              per(run_ns, run.deliveries), replay_over_dist,
              ok ? "ok" : "VIOLATION");
  return ok;
}

int run(const std::string& out_path, bool quick) {
  std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"cycle/n=16", graph::cycle(16)},
      {"petersen", graph::petersen()},
  };
  if (!quick) {
    graphs.emplace_back("grid/5x5", graph::grid(5, 5));
    graphs.emplace_back("hypercube/d=4", graph::hypercube(4));
    graphs.emplace_back("grid/8x8", graph::grid(8, 8));
  }
  constexpr gossip::Algorithm kAlgorithms[] = {
      gossip::Algorithm::kSimple, gossip::Algorithm::kUpDown,
      gossip::Algorithm::kConcurrentUpDown, gossip::Algorithm::kTelephone};

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "dist_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }

  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);

  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  w.field("suite", "dist");
  w.field("quick", quick);
  w.key("rows").begin_array();

  bool all_ok = true;
  std::size_t row_count = 0;
  for (const auto& [name, g] : graphs) {
    for (const gossip::Algorithm algorithm : kAlgorithms) {
      registry.reset();
      const gossip::Solution central = gossip::solve_gossip(g, algorithm);
      const graph::Vertex n = central.instance.vertex_count();
      const std::uint32_t r = central.instance.radius();
      const std::size_t horizon = central.schedule.round_count();

      // Central replay: one flat loop over the precomputed schedule.
      Stopwatch central_watch;
      const sim::SimResult replay =
          sim::simulate(central.instance.tree().as_graph(), central.schedule,
                        central.instance.initial());
      const auto central_ns =
          static_cast<std::uint64_t>(central_watch.seconds() * 1e9);

      dist::ActorRuntime runtime(central.instance, g, {});
      if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
        runtime.use_online_rule();
      } else {
        runtime.use_timetable(central.schedule);
      }
      Stopwatch dist_watch;
      const dist::RunReport run = runtime.run(horizon);
      const auto dist_ns =
          static_cast<std::uint64_t>(dist_watch.seconds() * 1e9);

      const dist::VerifyReport verify =
          dist::verify_against_schedule(central.schedule, run.emergent, n, r);
      const bool n_plus_r_ok =
          algorithm != gossip::Algorithm::kConcurrentUpDown ||
          verify.n_plus_r_ok;
      const bool row_ok = central.report.ok && replay.completed &&
                          verify.match && run.complete && n_plus_r_ok;
      all_ok = all_ok && row_ok;
      ++row_count;

      const obs::Snapshot snap = registry.snapshot();
      const obs::HistogramSnapshot round_hist =
          snap.histogram("dist.round_ns");
      w.begin_object();
      w.field("name", name);
      w.field("algorithm", gossip::algorithm_name(algorithm));
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("r", static_cast<std::uint64_t>(r));
      w.field("rounds", static_cast<std::uint64_t>(horizon));
      w.field("messages", static_cast<std::uint64_t>(run.messages));
      w.field("deliveries", static_cast<std::uint64_t>(run.deliveries));
      w.field("central_ns", central_ns);
      w.field("dist_serial_ns", dist_ns);
      w.field("actor_overhead",
              central_ns == 0
                  ? 0.0
                  : static_cast<double>(dist_ns) /
                        static_cast<double>(central_ns));
      // One run per row feeds the per-round histogram.
      w.field("round_samples", round_hist.count);
      w.field("round_ns_p50", round_hist.p50);
      w.field("round_ns_p99", round_hist.p99);
      w.field("match", verify.match);
      w.field("n_plus_r_ok", n_plus_r_ok);
      w.field("complete", run.complete);
      w.end_object();

      std::printf("%-14s %-18s rounds=%3zu central=%8llu ns dist=%8llu ns "
                  "%s\n",
                  name.c_str(), gossip::algorithm_name(algorithm).c_str(),
                  horizon, static_cast<unsigned long long>(central_ns),
                  static_cast<unsigned long long>(dist_ns),
                  row_ok ? "ok" : "VIOLATION");
    }
  }

  w.end_array();

  w.key("faulty").begin_array();
  const std::vector<graph::Vertex> faulty_sizes =
      quick ? std::vector<graph::Vertex>{256}
            : std::vector<graph::Vertex>{256, 1024};
  for (const graph::Vertex n : faulty_sizes) {
    all_ok = faulty_row(w, n, quick ? 5 : 3) && all_ok;
    ++row_count;
  }
  w.end_array();
  w.end_object();
  out << '\n';

  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), row_count);
  if (!all_ok) {
    std::fprintf(stderr,
                 "dist_bench: emergent schedule diverged, run incomplete, "
                 "n + r violated, or a faulty replay mismatched\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dist.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: dist_bench [--out FILE] [--quick]\n");
      return 2;
    }
  }
  return run(out_path, quick);
}
