// Request-path benchmark: drives the library from outside, through its
// public calls only, on four workloads that share the paper's pipeline
// (fingerprint/cache -> center -> min-depth BFS tree -> DFS labels ->
// ConcurrentUpDown -> validation -> simulated or distributed execution).
//
//   request_path --workload cold_solve|hot_cache|churn_stream|faulty_dist
//                --seed N --seconds S --trace 0|1 [--toy] [--spans-out F]
//
// --trace 0 measures the undecomposed calls with no tracing and prints the
// end-to-end metrics.  --trace 1 runs, for every op, the undecomposed call
// (timed, untraced: the overhead reference) and the same work decomposed
// into one public call per layer, each wrapped in a span recorded from
// here; it prints the per-layer metrics.  Every op's output is checked
// outside the timed region.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --toy shrinks every input so the self-test runs in seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "churn/feed.h"
#include "churn/solver.h"
#include "dist/runtime.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "gossip/instance.h"
#include "gossip/patch.h"
#include "gossip/solve.h"
#include "graph/center.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "model/validator.h"
#include "sim/network_sim.h"
#include "support/rng.h"
#include "tree/incremental.h"
#include "tree/spanning_tree.h"

namespace {

using namespace mg;
constexpr gossip::Algorithm kCud = gossip::Algorithm::kConcurrentUpDown;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- inputs

/// Independent generator stream `index` of role `tag` under the run seed:
/// inputs depend on (seed, tag, index) only, never on timing.
Rng stream(std::uint64_t seed, std::uint64_t tag, std::uint64_t index = 0) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL;
  x ^= (tag + 1) * 0xbf58476d1ce4e5b9ULL;
  x ^= (index + 1) * 0x94d049bb133111ebULL;
  return Rng(x);
}

enum Tag : std::uint64_t {
  kColdRequest, kColdWarm, kHotGraph, kHotZipf, kChurnGraph, kChurnFeed,
  kDistGraph, kDistFault, kDistWarm,
};

graph::Graph cubic_graph(std::uint64_t seed, Tag tag, std::uint64_t index,
                         graph::Vertex n) {
  Rng rng = stream(seed, tag, index);
  return graph::random_regular_configuration(n, 3, rng);
}

double adjacency_entries(const graph::Graph& g) {
  return 2.0 * static_cast<double>(g.edge_count());
}

// ------------------------------------------------------------- span trace

enum Layer : std::uint8_t {
  kOp, kFindCenter, kBfsTree, kLabeling, kRunAlgorithm, kPatch, kValidate,
  kSimulate, kFingerprint, kHit, kInvalidate, kApplyEvent, kSnapshot,
  kRetree, kCentralSolve, kDistRun, kDistVerify, kLayerCount,
};

constexpr const char* kLayerName[kLayerCount] = {
    "op", "graph.find_center", "tree.bfs_tree", "tree.labeling",
    "gossip.run_algorithm", "gossip.patch_schedule", "model.validate",
    "sim.simulate", "engine.fingerprint", "engine.hit", "engine.invalidate",
    "churn.apply_event", "graph.snapshot", "tree.retree",
    "dist.central_solve", "dist.run", "dist.verify",
};

constexpr std::uint32_t kNoParent = UINT32_MAX;

struct Span {
  Layer layer;
  std::uint32_t parent;  ///< index in the same buffer, or kNoParent
  std::uint64_t op;
  std::int64_t start;
  std::int64_t end;
  double work;  ///< units of work done (edge visits, transmissions, ...)
};

/// In-memory span recorder of one client thread.  Spans nest by call
/// order; `fold` turns each finished op's spans into per-layer self-time
/// samples and keeps the raw spans of the first `keep_ops` ops for export.
class Trace {
 public:
  struct Stats {
    std::vector<double> self_ns[kLayerCount];
    std::vector<double> ns_per_work[kLayerCount];
    std::vector<double> op_ns;  ///< op span durations
    double op_total_ns = 0;
    double op_self_ns = 0;  ///< op time not covered by any layer span
  };

  std::uint32_t open(Layer layer, std::uint64_t op) {
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back({layer, parent, op, now_ns(), 0, 0.0});
    stack_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::uint32_t index, double work) {
    spans_[index].end = now_ns();
    spans_[index].work = work;
    stack_.pop_back();
  }

  /// Folds every span recorded since the last fold.  Call with no span
  /// open.
  void fold(std::size_t keep_ops) {
    std::vector<double> child_ns(spans_.size() - folded_, 0.0);
    for (std::size_t i = folded_; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != kNoParent) {
        child_ns[s.parent - folded_] += static_cast<double>(s.end - s.start);
      }
    }
    for (std::size_t i = folded_; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end - s.start);
      const double self = dur - child_ns[i - folded_];
      stats_.self_ns[s.layer].push_back(self);
      if (s.work > 0) stats_.ns_per_work[s.layer].push_back(self / s.work);
      if (s.layer == kOp) {
        stats_.op_ns.push_back(dur);
        stats_.op_total_ns += dur;
        stats_.op_self_ns += self;
      }
    }
    if (++ops_ > keep_ops) spans_.resize(folded_);
    folded_ = spans_.size();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::size_t folded_ = 0;
  std::size_t ops_ = 0;
  Stats stats_;
};

/// RAII span; a null trace records nothing.
class Scoped {
 public:
  Scoped(Trace* trace, Layer layer, std::uint64_t op) : trace_(trace) {
    if (trace_ != nullptr) index_ = trace_->open(layer, op);
  }
  ~Scoped() {
    if (trace_ != nullptr) trace_->close(index_, work_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void work(double units) { work_ = units; }

 private:
  Trace* trace_;
  std::uint32_t index_ = 0;
  double work_ = 0;
};

// ---------------------------------------------------------------- report

/// Per-op latencies go into a fixed-size uniform reservoir (Algorithm R),
/// so a fast workload's record keeping neither grows peak RSS with the op
/// count nor page-faults inside the timed loop.
constexpr std::size_t kReservoir = 1 << 18;

struct Client {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double stretch_sum = 0;  ///< of delivered schedule rounds / (n + r)
  double busy_s = 0;       ///< summed op latency
  std::vector<float> latency_us;  ///< reservoir sample of op latencies
  Rng reservoir_rng;
  Trace trace;
  std::vector<double> reference_ns;  ///< undecomposed op time (traced run)
};

/// Sums of host-independent per-op counts over the first `window` ops.
struct Counts {
  std::size_t window = 0;
  std::size_t ops = 0;
  double bfs_runs = 0, transmissions = 0, deliveries_validated = 0;
  double retree_bfs = 0, full_rebuilds = 0, patches = 0, patches_kept = 0;
  double resolves = 0, invalidations = 0;
  double dist_deliveries = 0, control_messages = 0, recovery_rounds = 0;
  double injected_drops = 0, skipped_sends = 0;

  [[nodiscard]] bool counting() const { return ops < window; }
};

struct Report {
  std::vector<double> setup_s;
  std::vector<Client> clients;
  bool claims_ok = true;  ///< workload-level checks held
  std::vector<std::string> notes;
  Counts counts;
  double hit_frac = 0;  ///< engine hits / requests during the timed run
  std::vector<double> miss_ns;  ///< undecomposed Engine::solve misses

  void claim(bool ok, const std::string& what) {
    if (!ok) {
      claims_ok = false;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string spans_out;
};

/// Closed-loop run control: continue until `seconds` have passed and at
/// least `min_ops` ops finished (so the p90 has >= 10 samples beyond it),
/// but never past a hard wall that keeps the process under its time limit.
class Deadline {
 public:
  Deadline(double seconds, std::size_t min_ops)
      : end_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)),
        wall_(now_ns() + static_cast<std::int64_t>(120e9)),
        min_ops_(min_ops) {}
  [[nodiscard]] bool more(std::size_t ops) const {
    const std::int64_t t = now_ns();
    return t < wall_ && (ops < min_ops_ || t < end_);
  }

 private:
  std::int64_t end_, wall_;
  std::size_t min_ops_;
};

constexpr std::size_t kMinOps = 100;
constexpr std::size_t kKeepSpanOps = 200;  ///< raw spans exported per client

/// Runs `make` at least 5 times and until 1 s of set-up has been timed (at
/// most 100 times), so setup_s is a median over enough repetitions to ride
/// out host noise even where one set-up takes milliseconds.  Keeps the
/// last state; every repetition builds the same state from the seed.
template <class Make>
auto repeated_setup(Report& report, Make make) {
  decltype(make()) state;
  double total_s = 0;
  while (report.setup_s.size() < 5 ||
         (total_s < 1.0 && report.setup_s.size() < 100)) {
    state.reset();
    const std::int64_t t0 = now_ns();
    state = make();
    report.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    total_s += report.setup_s.back();
  }
  return state;
}

void record(Client& client, std::int64_t t0, std::int64_t t1, double stretch,
            bool ok) {
  const double us = static_cast<double>(t1 - t0) * 1e-3;
  ++client.ops;
  client.failed += !ok;
  client.stretch_sum += stretch;
  client.busy_s += us * 1e-6;
  if (client.latency_us.size() < kReservoir) {
    if (client.latency_us.empty()) client.latency_us.reserve(kReservoir);
    client.latency_us.push_back(static_cast<float>(us));
  } else if (const std::uint64_t j = client.reservoir_rng.below(client.ops);
             j < kReservoir) {
    client.latency_us[j] = static_cast<float>(us);
  }
}

/// Engine for workloads that only miss or invalidate: schedule memory
/// stays bounded by LRU eviction.
const engine::EngineOptions kSmallCache{.cache_capacity = 8, .threads = 1};

// ----------------------------------------------- decomposed central solve

struct Decomposed {
  std::optional<gossip::Instance> instance;
  model::Schedule schedule;
  model::ValidationReport report;
  std::vector<model::Message> initial;
};

/// solve_gossip's steps, one public call per span: find_center, bfs_tree,
/// Instance (DFS labels), run_algorithm, validate_schedule.
Decomposed decomposed_solve(const graph::Graph& g, Trace* trace,
                            std::uint64_t op, Counts& counts) {
  Decomposed d;
  graph::CenterResult center;
  {
    Scoped s(trace, kFindCenter, op);
    center = graph::find_center(g);
    s.work(static_cast<double>(center.bfs_runs) * adjacency_entries(g));
  }
  tree::RootedTree tree;
  {
    Scoped s(trace, kBfsTree, op);
    tree = tree::bfs_tree(g, center.center);
  }
  {
    Scoped s(trace, kLabeling, op);
    d.instance.emplace(std::move(tree));
  }
  {
    Scoped s(trace, kRunAlgorithm, op);
    d.schedule = gossip::run_algorithm(*d.instance, kCud);
    s.work(static_cast<double>(d.schedule.transmission_count()));
  }
  const graph::Graph tree_graph = d.instance->tree().as_graph();
  d.initial = d.instance->initial();
  {
    Scoped s(trace, kValidate, op);
    d.report = model::validate_schedule(tree_graph, d.schedule, d.initial);
    s.work(static_cast<double>(d.schedule.delivery_count()));
  }
  if (counts.counting()) {
    counts.bfs_runs += static_cast<double>(center.bfs_runs);
    counts.transmissions +=
        static_cast<double>(d.schedule.transmission_count());
    counts.deliveries_validated +=
        static_cast<double>(d.schedule.delivery_count());
  }
  return d;
}

// ------------------------------------------------------------ cold_solve

// Every request is a never-seen graph: each construction layer does its
// full work and the cache does none.
void cold_solve(const Args& args, Report& report) {
  const graph::Vertex n = args.toy ? 64 : 512;
  auto engine = repeated_setup(report, [&] {
    auto e = std::make_unique<engine::Engine>(kSmallCache);
    const graph::Graph g = cubic_graph(args.seed, kColdWarm, 0, n);
    const engine::ResultPtr r = e->solve(g);
    (void)sim::simulate(g, r->schedule, r->initial);
    return e;
  });
  engine::Engine& eng = *engine;
  const engine::EngineStats before = eng.stats();

  Client& client = report.clients.emplace_back();
  Counts& counts = report.counts;
  counts.window = args.toy ? 4 : 16;
  const Deadline deadline(args.seconds, kMinOps);
  for (std::uint64_t op = 0; deadline.more(op); ++op) {
    const graph::Graph g = cubic_graph(args.seed, kColdRequest, op, n);
    // The undecomposed request; in a traced run it alternates with the
    // decomposed one so neither always finds the caches warm.
    auto undecomposed = [&] {
      const std::int64_t t0 = now_ns();
      engine::ResultPtr r = eng.solve(g);
      const std::int64_t t_solve = now_ns();
      sim::SimResult sim = sim::simulate(g, r->schedule, r->initial);
      const std::int64_t t1 = now_ns();
      const std::size_t bound = n + r->radius;
      const std::size_t rounds = r->schedule.total_time();
      const bool ok = r->report.ok && rounds == bound && sim.completed;
      record(client, t0, t1,
             static_cast<double>(rounds) / static_cast<double>(bound), ok);
      if (args.trace) {
        client.reference_ns.push_back(static_cast<double>(t1 - t0));
        report.miss_ns.push_back(static_cast<double>(t_solve - t0));
      }
      return std::make_pair(r, sim.completed);
    };
    if (!args.trace) {
      (void)undecomposed();
      continue;
    }
    std::optional<std::pair<engine::ResultPtr, bool>> ref;
    if (op % 2 == 0) ref = undecomposed();
    Trace* trace = &client.trace;
    std::uint64_t fingerprint = 0;
    Decomposed d;
    sim::SimResult sim;
    {
      Scoped s(trace, kOp, op);
      {
        Scoped f(trace, kFingerprint, op);
        fingerprint = engine::graph_fingerprint(g);
        f.work(adjacency_entries(g));
      }
      d = decomposed_solve(g, trace, op, counts);
      Scoped si(trace, kSimulate, op);
      sim = sim::simulate(g, d.schedule, d.initial);
      si.work(static_cast<double>(d.schedule.delivery_count()));
    }
    trace->fold(kKeepSpanOps);
    if (!ref) ref = undecomposed();
    const engine::Result& r = *ref->first;
    report.claim(fingerprint == r.fingerprint && d.report.ok &&
                     model::equivalent(d.schedule, r.schedule) &&
                     d.initial == r.initial && sim.completed == ref->second,
                 "cold_solve op " + std::to_string(op) +
                     ": decomposed solve differs from Engine::solve");
    if (counts.counting()) ++counts.ops;
  }
  const engine::EngineStats after = eng.stats();
  const double requests = static_cast<double>(after.requests - before.requests);
  report.hit_frac = static_cast<double>(after.hits - before.hits) / requests;
  report.claim(after.hits == before.hits, "cold_solve: engine.hit_frac != 0");
}

// ------------------------------------------------------------- hot_cache

// Every request is a cache hit: construction does no work, so fingerprint,
// shard lookup and obs cost decide the latency.
void hot_cache(const Args& args, Report& report) {
  // n = 256, not 512: 64 cached n = 512 schedules peak at ~1 GB resident.
  const graph::Vertex n = args.toy ? 64 : 256;
  const std::size_t graphs = args.toy ? 8 : 64;
  const std::size_t clients = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  constexpr std::size_t kSequence = 1 << 16;
  struct State {
    std::vector<graph::Graph> graphs;
    std::vector<std::vector<std::uint32_t>> requests;  ///< per client
    std::unique_ptr<engine::Engine> engine;
    std::vector<engine::ResultPtr> expected;
  };
  auto state = repeated_setup(report, [&] {
    auto s = std::make_unique<State>();
    std::vector<engine::Request> batch;
    for (std::size_t i = 0; i < graphs; ++i) {
      s->graphs.push_back(cubic_graph(args.seed, kHotGraph, i, n));
      batch.push_back({s->graphs.back(), kCud});
    }
    // Zipf(1): P(rank k) proportional to 1/k.
    std::vector<double> cdf(graphs);
    double total = 0;
    for (std::size_t k = 0; k < graphs; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf[k] = total;
    }
    for (std::size_t c = 0; c < clients; ++c) {
      Rng rng = stream(args.seed, kHotZipf, c);
      auto& seq = s->requests.emplace_back(kSequence);
      for (auto& idx : seq) {
        const double u = rng.uniform01() * total;
        idx = static_cast<std::uint32_t>(
            std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
      }
    }
    s->engine = std::make_unique<engine::Engine>(
        engine::EngineOptions{.threads = clients});
    s->expected = s->engine->solve_batch(batch);
    return s;
  });
  engine::Engine& eng = *state->engine;

  // Every op returns one of these results: check each once, untimed.
  std::vector<char> expected_ok(graphs);
  for (std::size_t i = 0; i < graphs; ++i) {
    const engine::Result& r = *state->expected[i];
    const sim::SimResult sim =
        sim::simulate(state->graphs[i], r.schedule, r.initial);
    expected_ok[i] = r.report.ok && r.schedule.total_time() == n + r.radius &&
                     sim.completed;
  }
  const engine::EngineStats before = eng.stats();

  report.clients.resize(clients);
  std::vector<char> decomposition_ok(clients, 1);
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  const Deadline deadline(args.seconds, kMinOps);
  auto client_loop = [&](std::size_t c) {
    Client& client = report.clients[c];
    const auto& seq = state->requests[c];
    Trace* trace = &client.trace;
    for (std::uint64_t op = 0; deadline.more(op); ++op) {
      const std::uint32_t idx = seq[op % seq.size()];
      const graph::Graph& g = state->graphs[idx];
      const engine::Result* want = state->expected[idx].get();
      auto undecomposed = [&] {
        const std::int64_t t0 = now_ns();
        const engine::ResultPtr r = eng.solve(g);
        const std::int64_t t1 = now_ns();
        record(client, t0, t1, 1.0, r.get() == want && expected_ok[idx]);
        if (args.trace) client.reference_ns.push_back(t1 - t0);
      };
      if (!args.trace) {
        undecomposed();
        continue;
      }
      if (op % 2 == 0) undecomposed();
      engine::ResultPtr hit;
      {
        Scoped s(trace, kOp, op);
        Scoped h(trace, kHit, op);
        hit = eng.solve(g);
      }
      // The fingerprint inside Engine::solve cannot be split out from
      // here: time the same public call on the same graph, outside the
      // op so the op's traced time stays comparable to the reference.
      std::uint64_t fingerprint = 0;
      {
        Scoped f(trace, kFingerprint, op);
        fingerprint = engine::graph_fingerprint(g);
        f.work(adjacency_entries(g));
      }
      trace->fold(kKeepSpanOps);
      if (op % 2 == 1) undecomposed();
      if (hit.get() != want || fingerprint != want->fingerprint) {
        decomposition_ok[c] = 0;
      }
    }
  };
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_loop(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    report.claim(decomposition_ok[c] != 0,
                 "hot_cache: traced hit differs from the reference");
  }
  const engine::EngineStats after = eng.stats();
  const double requests = static_cast<double>(after.requests - before.requests);
  report.hit_frac = static_cast<double>(after.hits - before.hits) / requests;
  report.claim(after.hits - before.hits == after.requests - before.requests,
               "hot_cache: engine.hit_frac != 1");
  report.notes.push_back("clients " + std::to_string(clients) + ", graphs " +
                         std::to_string(graphs) + " at n = " +
                         std::to_string(n));
}

// ---------------------------------------------------------- churn_stream

/// ChurnSolver::apply's steps replayed through public calls, one span per
/// layer, on its own copy of the topology, tree, schedule and engine.
class ChurnReplica {
 public:
  ChurnReplica(const graph::Graph& g0, engine::Engine& engine)
      : engine_(engine), graph_(g0), tree_(graph_.snapshot()) {
    resolve(nullptr, 0, nullptr);
  }

  churn::ApplyReport apply(const churn::ChurnEvent& event, Trace* trace,
                           std::uint64_t op, Counts& counts) {
    churn::ApplyReport report;
    Scoped s(trace, kOp, op);
    std::uint64_t old_fingerprint = 0;
    {
      Scoped f(trace, kFingerprint, op);
      const graph::Graph& before = graph_.snapshot();
      old_fingerprint = engine::graph_fingerprint(before);
      f.work(adjacency_entries(before));
    }
    std::pair<graph::Vertex, graph::Vertex> uv;
    {
      Scoped a(trace, kApplyEvent, op);
      uv = churn::apply_event(graph_, event);
    }
    const graph::Graph* g = nullptr;
    {
      Scoped sn(trace, kSnapshot, op);
      g = &graph_.snapshot();
    }
    {
      Scoped i(trace, kInvalidate, op);
      report.invalidated = engine_.invalidate(old_fingerprint);
    }
    {
      Scoped r(trace, kRetree, op);
      switch (event.kind) {
        case churn::EventKind::kAddEdge:
          report.tree_report = tree_.on_edge_added(*g, uv.first, uv.second);
          break;
        case churn::EventKind::kRemoveEdge:
          report.tree_report = tree_.on_edge_removed(*g, uv.first, uv.second);
          break;
        case churn::EventKind::kAddNode:
        case churn::EventKind::kRemoveNode:
          report.tree_report = tree_.on_node_event(*g);
          break;
      }
    }
    report.fresh_bound =
        static_cast<std::size_t>(g->vertex_count()) + tree_.radius();
    const bool node_event = event.kind == churn::EventKind::kAddNode ||
                            event.kind == churn::EventKind::kRemoveNode;
    bool patch_attempted = false;
    if (node_event) {
      resolve(trace, op, &counts);
      report.resolved = true;
    } else {
      patch_attempted = true;
      gossip::PatchResult patch;
      {
        Scoped p(trace, kPatch, op);
        patch = gossip::patch_schedule(*g, schedule_, initial_);
      }
      const double stale_limit =
          kStaleFactor * static_cast<double>(report.fresh_bound);
      if (!patch.complete ||
          static_cast<double>(patch.schedule.total_time()) > stale_limit) {
        resolve(trace, op, &counts);
        report.resolved = true;
      } else {
        schedule_ = std::move(patch.schedule);
        report.patched = true;
      }
    }
    report.schedule_time = schedule_.total_time();
    if (counts.counting()) {
      counts.retree_bfs += static_cast<double>(report.tree_report.bfs_runs);
      counts.full_rebuilds += report.tree_report.path ==
                              tree::MaintenancePath::kFullRebuild;
      counts.patches += patch_attempted;
      counts.patches_kept += report.patched;
      counts.resolves += report.resolved;
      counts.invalidations += static_cast<double>(report.invalidated);
    }
    return report;
  }

  static constexpr double kStaleFactor =
      churn::ChurnSolverOptions{}.stale_factor;

 private:
  void resolve(Trace* trace, std::uint64_t op, Counts* counts) {
    std::optional<gossip::Instance> instance;
    {
      Scoped l(trace, kLabeling, op);
      instance.emplace(tree_.tree());
    }
    {
      Scoped r(trace, kRunAlgorithm, op);
      schedule_ = gossip::run_algorithm(*instance, kCud);
      r.work(static_cast<double>(schedule_.transmission_count()));
    }
    initial_ = instance->initial();
    if (counts != nullptr && counts->counting()) {
      counts->transmissions +=
          static_cast<double>(schedule_.transmission_count());
    }
  }

  engine::Engine& engine_;
  graph::DynamicGraph graph_;
  tree::IncrementalTree tree_;
  model::Schedule schedule_;
  std::vector<model::Message> initial_;
};

// The same tree and gossip layers as cold_solve, run as incremental writes
// (retree, patch) instead of from-scratch reads.
void churn_stream(const Args& args, Report& report) {
  // n = 128: a tree-edge removal's patch costs ~170 ms at n = 256, so a
  // 10 s run saw only ~170 events.  Node events make n drift, so the stream is
  // cut into episodes of 128 events, each starting from a fresh graph
  // (set up untimed): every run sees the same stationary mix.
  const graph::Vertex n = args.toy ? 32 : 128;
  const std::size_t episode_events = args.toy ? 16 : 128;
  struct Episode {
    std::unique_ptr<engine::Engine> engine;
    std::unique_ptr<churn::ChurnSolver> solver;
    std::unique_ptr<engine::Engine> replica_engine;
    std::unique_ptr<ChurnReplica> replica;
    churn::ChurnFeed feed;
  };
  auto start_episode = [&](std::uint64_t index) {
    auto e = std::make_unique<Episode>();
    const graph::Graph g0 = cubic_graph(args.seed, kChurnGraph, index, n);
    churn::FeedOptions feed;
    feed.events = episode_events;
    feed.seed = stream(args.seed, kChurnFeed, index)();
    feed.allow_node_events = true;
    e->feed = churn::uniform_feed(g0, feed);
    // The attached engine holds g0, so the first mutation invalidates it.
    e->engine = std::make_unique<engine::Engine>(kSmallCache);
    (void)e->engine->solve(g0);
    e->solver = std::make_unique<churn::ChurnSolver>(
        g0, churn::ChurnSolverOptions{}, e->engine.get());
    if (args.trace) {
      e->replica_engine = std::make_unique<engine::Engine>(kSmallCache);
      (void)e->replica_engine->solve(g0);
      e->replica = std::make_unique<ChurnReplica>(g0, *e->replica_engine);
    }
    return e;
  };
  auto state = repeated_setup(report, [&] { return start_episode(0); });

  Client& client = report.clients.emplace_back();
  Counts& counts = report.counts;
  counts.window = args.toy ? 16 : 64;
  std::size_t patched = 0, resolved = 0, rebuilds = 0, next = 0;
  std::uint64_t episode = 0;
  const Deadline deadline(args.seconds, kMinOps);
  for (std::uint64_t op = 0; deadline.more(op); ++op) {
    if (next == state->feed.events.size()) {
      state.reset();
      state = start_episode(++episode);
      next = 0;
    }
    churn::ChurnSolver& solver = *state->solver;
    const churn::ChurnEvent event = state->feed.events[next++];
    churn::ApplyReport ref;
    auto undecomposed = [&] {
      const std::int64_t t0 = now_ns();
      ref = solver.apply(event);
      const std::int64_t t1 = now_ns();
      const bool ok =
          model::validate_schedule(solver.graph().snapshot(), solver.schedule(),
                                   solver.initial())
              .ok &&
          static_cast<double>(ref.schedule_time) <=
              ChurnReplica::kStaleFactor * static_cast<double>(ref.fresh_bound);
      record(client, t0, t1,
             static_cast<double>(ref.schedule_time) /
                 static_cast<double>(ref.fresh_bound),
             ok);
      if (args.trace) client.reference_ns.push_back(t1 - t0);
      patched += ref.patched;
      resolved += ref.resolved;
      rebuilds += ref.tree_report.path == tree::MaintenancePath::kFullRebuild;
    };
    if (!args.trace) {
      undecomposed();
      continue;
    }
    if (op % 2 == 0) undecomposed();
    const churn::ApplyReport mine =
        state->replica->apply(event, &client.trace, op, counts);
    client.trace.fold(kKeepSpanOps);
    if (op % 2 == 1) undecomposed();
    report.claim(mine.schedule_time == ref.schedule_time &&
                     mine.patched == ref.patched &&
                     mine.resolved == ref.resolved &&
                     mine.tree_report.path == ref.tree_report.path,
                 "churn_stream event " + std::to_string(op) +
                     ": replayed steps differ from ChurnSolver::apply");
    if (counts.counting()) ++counts.ops;
  }
  const double events = static_cast<double>(client.ops);
  char line[160];
  std::snprintf(line, sizeof line,
                "mix over %zu events in %llu episodes: patched %.4f  "
                "re-solved %.4f  full-rebuild %.4f",
                static_cast<std::size_t>(client.ops),
                static_cast<unsigned long long>(episode + 1),
                static_cast<double>(patched) / events,
                static_cast<double>(resolved) / events,
                static_cast<double>(rebuilds) / events);
  report.notes.push_back(line);
}

// ----------------------------------------------------------- faulty_dist

// dist, fault and the recovery protocol run in no other workload.  Each
// op runs on a fresh graph: a run's figures average over graphs instead
// of resting on one graph's radius and recovery luck.
void faulty_dist(const Args& args, Report& report) {
  const graph::Vertex n = args.toy ? 32 : 256;
  auto options_for = [&](fault::FaultPlan& plan, Tag tag, std::uint64_t op) {
    plan.drop_rate(0.01).seed(stream(args.seed, tag, op)());
    dist::RuntimeOptions o;  // serial runtime, recovery on
    o.faults = &plan;
    return o;
  };
  (void)repeated_setup(report, [&] {
    auto warm = std::make_unique<graph::Graph>(
        cubic_graph(args.seed, kDistWarm, 0, n));
    fault::FaultPlan plan;
    (void)dist::run_distributed(*warm, kCud,
                                options_for(plan, kDistWarm, 0));
    return warm;
  });

  Client& client = report.clients.emplace_back();
  Counts& counts = report.counts;
  counts.window = args.toy ? 4 : 12;
  const Deadline deadline(args.seconds, kMinOps);
  for (std::uint64_t op = 0; deadline.more(op); ++op) {
    const graph::Graph g = cubic_graph(args.seed, kDistGraph, op, n);
    fault::FaultPlan plan;
    const dist::RuntimeOptions options = options_for(plan, kDistFault, op);
    dist::RunReport ref;
    auto undecomposed = [&] {
      const std::int64_t t0 = now_ns();
      dist::DistOutcome out = dist::run_distributed(g, kCud, options);
      const std::int64_t t1 = now_ns();
      const double bound =
          static_cast<double>(n + out.central.instance.radius());
      record(client, t0, t1,
             static_cast<double>(out.run.horizon + out.run.recovery_rounds) /
                 bound,
             out.run.complete);
      if (args.trace) client.reference_ns.push_back(t1 - t0);
      ref = std::move(out.run);
    };
    if (!args.trace) {
      undecomposed();
      continue;
    }
    if (op % 2 == 0) undecomposed();
    Trace* trace = &client.trace;
    dist::RunReport run;
    {
      Scoped s(trace, kOp, op);
      Decomposed d;
      {
        Scoped c(trace, kCentralSolve, op);
        d = decomposed_solve(g, trace, op, counts);
      }
      {
        Scoped r(trace, kDistRun, op);
        dist::ActorRuntime runtime(*d.instance, g, options);
        runtime.use_online_rule();
        run = runtime.run(d.schedule.round_count());
        r.work(static_cast<double>(run.deliveries));
      }
      Scoped v(trace, kDistVerify, op);
      (void)dist::verify_against_schedule(d.schedule, run.emergent,
                                          d.instance->vertex_count(),
                                          d.instance->radius());
    }
    trace->fold(kKeepSpanOps);
    if (op % 2 == 1) undecomposed();
    report.claim(run.deliveries == ref.deliveries &&
                     run.recovery_rounds == ref.recovery_rounds &&
                     run.complete == ref.complete,
                 "faulty_dist op " + std::to_string(op) +
                     ": decomposed run differs from run_distributed");
    if (counts.counting()) {
      counts.dist_deliveries += static_cast<double>(run.deliveries);
      counts.control_messages += static_cast<double>(run.control_messages);
      counts.recovery_rounds += static_cast<double>(run.recovery_rounds);
      counts.injected_drops += static_cast<double>(run.injected_drops);
      counts.skipped_sends += static_cast<double>(run.skipped_sends);
      ++counts.ops;
    }
  }
}

// ---------------------------------------------------------------- output

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Report& report, std::size_t attempted,
                               std::size_t failed) {
  std::vector<double> latencies;
  double ops_per_s = 0, stretch = 0;
  for (const Client& c : report.clients) {
    latencies.insert(latencies.end(), c.latency_us.begin(), c.latency_us.end());
    stretch += c.stretch_sum;
    if (c.busy_s > 0) ops_per_s += static_cast<double>(c.ops) / c.busy_s;
  }
  return {
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_us", quantile(latencies, 0.5), "us"},
      {"latency_p90_us", quantile(latencies, 0.9), "us"},
      {"setup_s", quantile(report.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", 1.0 - static_cast<double>(failed) /
                            static_cast<double>(attempted), "frac"},
      {"schedule_stretch", stretch / static_cast<double>(attempted), "ratio"},
  };
}

std::vector<Metric> per_layer(const Report& report) {
  std::vector<double> self[kLayerCount], per_work[kLayerCount];
  std::vector<double> traced, reference;
  double op_total = 0, op_self = 0;
  for (const Client& c : report.clients) {
    const Trace::Stats& st = c.trace.stats();
    for (int l = 0; l < kLayerCount; ++l) {
      self[l].insert(self[l].end(), st.self_ns[l].begin(), st.self_ns[l].end());
      per_work[l].insert(per_work[l].end(), st.ns_per_work[l].begin(),
                         st.ns_per_work[l].end());
    }
    traced.insert(traced.end(), st.op_ns.begin(), st.op_ns.end());
    reference.insert(reference.end(), c.reference_ns.begin(),
                     c.reference_ns.end());
    op_total += st.op_total_ns;
    op_self += st.op_self_ns;
  }
  const Counts& k = report.counts;
  const double ops = k.ops > 0 ? static_cast<double>(k.ops) : 1.0;
  auto us = [&](Layer l) { return quantile(self[l], 0.5) * 1e-3; };
  auto ns_per = [&](Layer l) { return quantile(per_work[l], 0.5); };
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double ref_p50 = quantile(reference, 0.5);
  return {
      {"graph.find_center.us", us(kFindCenter), "us"},
      {"graph.find_center.bfs_runs", k.bfs_runs / ops, "count"},
      {"graph.find_center.ns_per_edge_visit", ns_per(kFindCenter), "ns"},
      {"graph.snapshot.us", us(kSnapshot), "us"},
      {"tree.bfs_tree.us", us(kBfsTree), "us"},
      {"tree.labeling.us", us(kLabeling), "us"},
      {"tree.retree.us", us(kRetree), "us"},
      {"tree.retree.bfs_runs", k.retree_bfs / ops, "count"},
      {"tree.retree.full_rebuild_frac", k.full_rebuilds / ops, "frac"},
      {"gossip.run_algorithm.us", us(kRunAlgorithm), "us"},
      {"gossip.run_algorithm.ns_per_tx", ns_per(kRunAlgorithm), "ns"},
      {"gossip.transmissions", k.transmissions / ops, "count"},
      {"gossip.patch_schedule.us", us(kPatch), "us"},
      {"gossip.patch_schedule.kept_frac", frac(k.patches_kept, k.patches),
       "frac"},
      {"model.validate.us", us(kValidate), "us"},
      {"model.validate.ns_per_delivery", ns_per(kValidate), "ns"},
      {"model.deliveries", k.deliveries_validated / ops, "count"},
      {"sim.simulate.us", us(kSimulate), "us"},
      {"sim.simulate.ns_per_delivery", ns_per(kSimulate), "ns"},
      {"engine.fingerprint.us", us(kFingerprint), "us"},
      {"engine.fingerprint.ns_per_adjacency", ns_per(kFingerprint), "ns"},
      {"engine.hit.us", us(kHit), "us"},
      {"engine.hit_frac", report.hit_frac, "frac"},
      {"engine.miss.us", quantile(report.miss_ns, 0.5) * 1e-3, "us"},
      {"engine.invalidations", k.invalidations / ops, "count"},
      {"churn.apply_event.us", us(kApplyEvent), "us"},
      {"churn.patched_frac", k.patches_kept / ops, "frac"},
      {"churn.resolved_frac", k.resolves / ops, "frac"},
      {"dist.run.us", us(kDistRun), "us"},
      {"dist.run.ns_per_delivery", ns_per(kDistRun), "ns"},
      {"dist.deliveries", k.dist_deliveries / ops, "count"},
      {"dist.control_messages", k.control_messages / ops, "count"},
      {"dist.recovery_rounds", k.recovery_rounds / ops, "count"},
      {"dist.central_solve.us", us(kCentralSolve), "us"},
      {"dist.verify.us", us(kDistVerify), "us"},
      {"fault.injected_drops", k.injected_drops / ops, "count"},
      {"fault.skipped_sends", k.skipped_sends / ops, "count"},
      {"trace.overhead_frac",
       ref_p50 > 0 ? quantile(traced, 0.5) / ref_p50 - 1.0 : 0.0, "frac"},
      {"trace.unattributed_frac", frac(op_self, op_total), "frac"},
  };
}

/// Chrome trace-event JSON of the kept raw spans (chrome://tracing,
/// Perfetto).  Times are microseconds from the first span.
void write_spans(const Report& report, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = INT64_MAX;
  for (const Client& c : report.clients) {
    for (const Span& s : c.trace.spans()) origin = std::min(origin, s.start);
  }
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  for (std::size_t tid = 0; tid < report.clients.size(); ++tid) {
    const auto& spans = report.clients[tid].trace.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %llu, \"parent\": %lld, \"work\": %.17g}}",
                   sep, kLayerName[s.layer], tid,
                   static_cast<double>(s.start - origin) * 1e-3,
                   static_cast<double>(s.end - s.start) * 1e-3,
                   static_cast<unsigned long long>(s.op),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   s.work);
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
      if (!(a.seconds > 0 && a.seconds <= 60)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = t == "1";
    } else if (flag == "--toy") {
      a.toy = true;
    } else if (flag == "--spans-out") {
      a.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request_path: %s\n", e.what());
    return 2;
  }
  void (*workload)(const Args&, Report&) = nullptr;
  if (args.workload == "cold_solve") workload = cold_solve;
  if (args.workload == "hot_cache") workload = hot_cache;
  if (args.workload == "churn_stream") workload = churn_stream;
  if (args.workload == "faulty_dist") workload = faulty_dist;
  if (workload == nullptr) {
    std::fprintf(stderr, "request_path: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Report report;
  try {
    workload(args, report);
    if (args.trace && !args.spans_out.empty()) {
      write_spans(report, args.spans_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request_path: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  std::size_t attempted = 0, failed = 0, sampled = 0;
  for (const Client& c : report.clients) {
    failed += c.failed;
    attempted += c.ops;
    sampled += c.latency_us.size();
  }
  if (attempted == 0) {
    std::fprintf(stderr, "request_path: no op completed\n");
    return 1;
  }
  const bool correct = failed == 0 && report.claims_ok;

  std::printf("workload %s  seed %llu  trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.toy ? "  (toy sizes)" : "");
  std::printf("ops %zu  latency samples %zu  failed %zu  failed_frac %.6f\n",
              attempted, sampled, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  const std::vector<Metric> metrics =
      args.trace ? per_layer(report) : end_to_end(report, attempted, failed);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
