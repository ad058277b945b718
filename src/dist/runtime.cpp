#include "dist/runtime.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "gossip/online.h"
#include "obs/causal.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "support/contracts.h"
#include "support/stopwatch.h"

namespace mg::dist {

using graph::Vertex;
using model::Message;

namespace {

/// Mirrors one happens-before link into the global causal ring (a single
/// relaxed load while the tracer is disabled; nothing at all when the
/// build compiled observability out).
void mirror_causal(const CausalLink& link) {
#if MG_OBS_ENABLED
  obs::CausalTracer::global().try_record(
      {link.id, link.parent, static_cast<std::uint32_t>(link.kind),
       link.round, link.sender, link.message, link.fanout});
#else
  (void)link;
#endif
}

}  // namespace

struct ActorRuntime::Impl {
  const gossip::Instance* instance;
  const graph::Graph* network;
  RuntimeOptions options;
  std::vector<ProcessorActor> actors;
  bool ran = false;

  Impl(const gossip::Instance& inst, const graph::Graph& net,
       const RuntimeOptions& opts)
      : instance(&inst), network(&net), options(opts) {
    MG_EXPECTS(net.vertex_count() == inst.vertex_count());
  }

  [[nodiscard]] Vertex n() const { return instance->vertex_count(); }

  void emit(const obs::TraceEvent& event) {
    if (options.sink != nullptr) options.sink->on_event(event);
  }

  RunReport run(std::size_t horizon);
};

ActorRuntime::ActorRuntime(const gossip::Instance& instance,
                           const graph::Graph& network,
                           const RuntimeOptions& options)
    : impl_(std::make_unique<Impl>(instance, network, options)) {}

ActorRuntime::~ActorRuntime() = default;

namespace {

std::vector<Vertex> network_neighbors(const graph::Graph& g, Vertex v) {
  const auto span = g.neighbors(v);
  return {span.begin(), span.end()};
}

}  // namespace

void ActorRuntime::use_online_rule() {
  Impl& im = *impl_;
  MG_EXPECTS(im.actors.empty());
  const Vertex n = im.n();
  im.actors.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    im.actors.emplace_back(
        v, n, im.instance->labels().label(v),
        network_neighbors(*im.network, v),
        std::make_unique<OnlineRule>(gossip::local_info_for(*im.instance, v)));
  }
}

void ActorRuntime::use_timetable(const model::Schedule& schedule) {
  Impl& im = *impl_;
  MG_EXPECTS(im.actors.empty());
  const Vertex n = im.n();
  // One pass buckets the rows by sender; rounds are visited in order, so
  // every bucket is already sorted by send time.
  std::vector<std::vector<TimetableRule::Row>> rows(n);
  for (std::size_t t = 0; t < schedule.round_count(); ++t) {
    for (const model::Transmission& tx : schedule.round(t)) {
      MG_EXPECTS(tx.sender < n);
      rows[tx.sender].emplace_back(t, tx);
    }
  }
  im.actors.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    im.actors.emplace_back(v, n, im.instance->labels().label(v),
                           network_neighbors(*im.network, v),
                           std::make_unique<TimetableRule>(std::move(rows[v])));
  }
}

RunReport ActorRuntime::run(std::size_t horizon) {
  Impl& im = *impl_;
  MG_EXPECTS(!im.actors.empty());  // pick a rule first
  MG_EXPECTS(!im.ran);
  im.ran = true;

  MG_OBS_SPAN(dist_span, "dist.run");
  MG_OBS_SCOPE_HIST(dist_hist, "dist.run_ns");

  const Vertex n = im.n();
  const fault::FaultPlan* plan =
      im.options.faults != nullptr && !im.options.faults->empty()
          ? im.options.faults
          : nullptr;
  const std::size_t max_delay = plan != nullptr ? plan->max_extra_delay() : 0;
  const tree::RootedTree& tree = im.instance->tree();

  MailboxBus bus(n, im.options.seed, max_delay);
  RunReport report;
  report.horizon = horizon;

  std::vector<Outbox> out(n);
  // Trace ids for the happens-before record: one per logical transmission
  // (data multicast, digest fan-out, grant), assigned in actor-id order,
  // so ids are deterministic under a fixed seed.
  std::uint64_t next_trace = 0;

  // Applies the fabric's verdict to actor v's data transmission at absolute
  // round `abs_t` and, when it survives, captures events, posts the
  // envelopes, then moves the transmission into `into`.  Posting writes
  // only the bus's boxes, never an inbox, so actors later in the same pass
  // still read exactly what the last flip delivered to them.
  auto capture_data = [&](Vertex v, std::size_t abs_t, model::Schedule& into,
                          std::size_t local_t, bool main_phase) {
    if (!out[v].data.has_value()) return;
    const model::Transmission& tx = *out[v].data;
    const Vertex first_receiver =
        tx.receivers.empty() ? tx.sender : tx.receivers.front();
    if (plan != nullptr && plan->crashed(v, abs_t)) {
      ++report.crashed_sends;
      im.emit({"crash", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    if (plan != nullptr && plan->drops(abs_t, v)) {
      ++report.injected_drops;
      im.emit({"drop", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    if (out[v].skipped) {
      ++report.skipped_sends;
      im.emit({"skip", abs_t, v, tx.message, first_receiver,
                        tx.receivers.size()});
      return;
    }
    ++report.messages;
    const std::uint64_t id = ++next_trace;
    report.causal.push_back({id, out[v].data_cause,
                             main_phase ? CausalLink::Kind::kData
                                        : CausalLink::Kind::kRepair,
                             abs_t, v, tx.message, tx.receivers.size()});
    mirror_causal(report.causal.back());
    im.emit({"send", abs_t, v, tx.message, first_receiver,
             tx.receivers.size(), id, out[v].data_cause});
    for (const Vertex r : tx.receivers) {
      const std::size_t extra =
          plan != nullptr ? plan->extra_delay(v, r) : 0;
      const std::size_t arrival = abs_t + 1 + extra;
      if (plan != nullptr && plan->crashed(r, arrival)) {
        ++report.lost_receives;
        im.emit({"lost", arrival, r, tx.message, v, 0});
        continue;
      }
      ++report.deliveries;
      im.emit({"receive", arrival, r, tx.message, v, 0, id, 0});
      Envelope e;
      e.kind = Envelope::Kind::kData;
      e.sender = v;
      e.message = tx.message;
      e.trace = id;
      // The one bit of link context the §4 online rule distinguishes:
      // whether this delivery rides the o-stream from the tree parent.
      e.from_parent = !tree.is_root(r) && tree.parent(r) == v && main_phase;
      bus.post(r, extra, e);
    }
    into.add(local_t, std::move(*out[v].data));
  };

  // ---- main phase: rounds 0 .. horizon-1 ---------------------------------
  std::size_t barrier = 0;  // bus flips performed (== time unit surfaced)
  for (std::size_t t = 0; t < horizon; ++t) {
    Stopwatch round_watch;
    bus.flip(barrier++);
    for (Vertex v = 0; v < n; ++v) {
      // Crashed actors are stepped for accounting only: their planned
      // transmission is captured as a "crash" loss (mirroring the
      // simulator), but they observe nothing — deliveries to them were
      // already voided at capture time.
      out[v] = im.actors[v].step_main(t, bus.inbox(v));
      capture_data(v, t, report.emergent, t, /*main_phase=*/true);
    }
    MG_OBS_HIST("dist.round_ns", static_cast<std::uint64_t>(round_watch.seconds() * 1e9));
  }
  // Drain: arrivals at times horizon .. horizon + max_delay.
  for (std::size_t a = 0; a <= max_delay; ++a) {
    bus.flip(barrier++);
    for (Vertex v = 0; v < n; ++v) {
      im.actors[v].absorb(horizon + a, bus.inbox(v));
    }
  }
  report.emergent.trim();

  report.main_holds.reserve(n);
  for (const ProcessorActor& actor : im.actors) {
    report.main_holds.push_back(actor.holds());
  }

  // ---- decentralized recovery -------------------------------------------
  const auto live_at = [&](Vertex v, std::size_t abs_t) {
    return plan == nullptr || !plan->crashed(v, abs_t);
  };
  // Stamps actor v's digest or grant with one trace id (a multicast is one
  // logical message), records its causal link, and posts one envelope per
  // live receiver — control envelopes to dead receivers just evaporate.
  // Delay 0: a digest's snapshot lives only until its sender's next digest.
  // Returns whether anything was posted.
  auto capture_control = [&](Vertex v, std::size_t abs_t,
                             CausalLink::Kind kind) {
    Outbox& o = out[v];
    if (!o.control.has_value() || o.control_to.empty()) return false;
    report.control_messages += o.control_to.size();
    const std::uint64_t id = ++next_trace;
    report.causal.push_back({id, o.control_cause, kind, abs_t, v,
                             o.control->message, o.control_to.size()});
    mirror_causal(report.causal.back());
    o.control->trace = id;
    bool posted = false;
    for (const Vertex to : o.control_to) {
      if (live_at(to, abs_t)) {
        bus.post(to, 0, *o.control);
        posted = true;
      }
    }
    return posted;
  };
  auto all_live_complete = [&](std::size_t abs_t) {
    for (Vertex v = 0; v < n; ++v) {
      if (live_at(v, abs_t) && !im.actors[v].complete()) return false;
    }
    return true;
  };

  std::size_t end_abs = horizon;
  if (im.options.recover && !all_live_complete(horizon)) {
    const std::size_t hard_cap =
        4 * static_cast<std::size_t>(n) * static_cast<std::size_t>(n) + 16;
    const std::size_t budget = im.options.extra_round_budget > 0
                                   ? im.options.extra_round_budget
                                   : hard_cap;
    for (std::size_t q = 0; q < budget; ++q) {
      const std::size_t abs_t = horizon + q;
      end_abs = abs_t;
      // Fold the previous cycle's data arrivals in, then digest.  Two
      // passes: the run ends before any digest is posted once every live
      // actor is complete.
      bus.flip(barrier++);
      for (Vertex v = 0; v < n; ++v) {
        im.actors[v].learn(bus.inbox(v));
        out[v] = live_at(v, abs_t) ? im.actors[v].step_digest() : Outbox{};
      }
      if (all_live_complete(abs_t)) break;
      for (Vertex v = 0; v < n; ++v) {
        (void)capture_control(v, abs_t, CausalLink::Kind::kDigest);
      }

      bus.flip(barrier++);
      bool any_grant = false;
      for (Vertex v = 0; v < n; ++v) {
        out[v] = live_at(v, abs_t) ? im.actors[v].step_grant(bus.inbox(v))
                                   : Outbox{};
        any_grant = capture_control(v, abs_t, CausalLink::Kind::kGrant) ||
                    any_grant;
      }
      if (!any_grant) break;  // quiescence == component closure reached

      bus.flip(barrier++);
      for (Vertex v = 0; v < n; ++v) {
        out[v] = live_at(v, abs_t) ? im.actors[v].step_data(bus.inbox(v))
                                   : Outbox{};
        capture_data(v, abs_t, report.repair, q, /*main_phase=*/false);
      }
      ++report.recovery_rounds;
    }
    // Absorb the final cycle's in-flight data.
    for (std::size_t a = 0; a <= max_delay; ++a) {
      bus.flip(barrier++);
      for (Vertex v = 0; v < n; ++v) im.actors[v].learn(bus.inbox(v));
    }
    report.repair.trim();
  }

  // ---- final accounting --------------------------------------------------
  std::vector<char> alive(n, 1);
  if (plan != nullptr) alive = plan->alive_at(end_abs, n);
  report.missing.resize(n);
  std::size_t live = 0;
  std::size_t held = 0;
  report.complete = true;
  for (Vertex v = 0; v < n; ++v) {
    report.missing[v] = im.actors[v].missing();
    report.final_holds.push_back(im.actors[v].holds());
    if (!alive[v]) {
      report.crashed.push_back(v);
      continue;
    }
    ++live;
    held += static_cast<std::size_t>(n) - report.missing[v];
    if (report.missing[v] != 0) report.complete = false;
  }
  report.coverage =
      live == 0 ? 1.0
                : static_cast<double>(held) / (static_cast<double>(live) *
                                               static_cast<double>(n));

  // `recovered` = every live actor holds its surviving component's
  // achievable closure (all a repair can deliver once crashes ate
  // messages or split the network) — computed here for reporting only.
  report.recovered = true;
  {
    std::vector<char> seen(n, 0);
    for (Vertex s = 0; s < n && report.recovered; ++s) {
      if (!alive[s] || seen[s]) continue;
      std::vector<Vertex> component{s};
      seen[s] = 1;
      DynamicBitset closure(n);
      for (std::size_t head = 0; head < component.size(); ++head) {
        const Vertex v = component[head];
        for (Message m = 0; m < n; ++m) {
          if (im.actors[v].holds().test(m)) closure.set(m);
        }
        for (const Vertex u : im.network->neighbors(v)) {
          if (alive[u] && !seen[u]) {
            seen[u] = 1;
            component.push_back(u);
          }
        }
      }
      for (const Vertex v : component) {
        if (im.actors[v].holds().count() != closure.count()) {
          report.recovered = false;
          break;
        }
      }
    }
  }

  MG_OBS_ADD("dist.causal_links", report.causal.size());
  MG_OBS_ADD("dist.runs", 1);
  MG_OBS_ADD("dist.rounds", horizon);
  MG_OBS_ADD("dist.recovery.rounds", report.recovery_rounds);
  MG_OBS_ADD("dist.messages", report.messages);
  MG_OBS_ADD("dist.deliveries", report.deliveries);
  MG_OBS_ADD("dist.control_messages", report.control_messages);
  MG_OBS_ADD("dist.injected_drops", report.injected_drops);
  MG_OBS_ADD("dist.crashed_sends", report.crashed_sends);
  MG_OBS_ADD("dist.skipped_sends", report.skipped_sends);
  MG_OBS_ADD("dist.lost_receives", report.lost_receives);
  return report;
}

CriticalPath critical_path(const RunReport& report) {
  CriticalPath path;
  std::unordered_map<std::uint64_t, const CausalLink*> by_id;
  by_id.reserve(report.causal.size());
  for (const CausalLink& link : report.causal) by_id.emplace(link.id, &link);

  // The chain tip: the data hop with the latest arrival (send round + 1).
  // Control hops never extend past their cycle's data round, so only data
  // and repair links compete; ties prefer the later-captured link so a
  // recovery tail, when present, is the chain reported.
  const CausalLink* tip = nullptr;
  for (const CausalLink& link : report.causal) {
    if (link.kind != CausalLink::Kind::kData &&
        link.kind != CausalLink::Kind::kRepair) {
      continue;
    }
    if (tip == nullptr || link.round > tip->round ||
        (link.round == tip->round && link.id > tip->id)) {
      tip = &link;
    }
  }
  if (tip == nullptr) return path;
  path.length = tip->round + 1;

  // Walk parents to the root.  A parent's id is always smaller than its
  // child's (the enabling arrival was captured before the send), so the
  // walk terminates; a parent evicted from the record ends the chain.
  for (const CausalLink* hop = tip; hop != nullptr;) {
    path.hops.push_back(*hop);
    if (hop->parent == 0) break;
    const auto it = by_id.find(hop->parent);
    hop = it == by_id.end() ? nullptr : it->second;
  }
  std::reverse(path.hops.begin(), path.hops.end());
  return path;
}

VerifyReport verify_against_schedule(const model::Schedule& central,
                                     const model::Schedule& emergent,
                                     Vertex n, std::uint32_t radius) {
  VerifyReport report;
  report.central_rounds = central.round_count();
  report.emergent_rounds = emergent.round_count();
  report.n_plus_r_ok =
      emergent.round_count() == static_cast<std::size_t>(n) + radius;

  const auto canonical = [](const model::Round& round) {
    std::vector<model::Transmission> txs(round.begin(), round.end());
    std::sort(txs.begin(), txs.end(),
              [](const model::Transmission& a, const model::Transmission& b) {
                return a.sender < b.sender;
              });
    return txs;
  };
  const std::size_t rounds =
      std::max(central.round_count(), emergent.round_count());
  for (std::size_t t = 0; t < rounds; ++t) {
    const auto a = t < central.round_count() ? canonical(central.round(t))
                                             : std::vector<model::Transmission>{};
    const auto b = t < emergent.round_count() ? canonical(emergent.round(t))
                                              : std::vector<model::Transmission>{};
    bool equal = a.size() == b.size();
    for (std::size_t i = 0; equal && i < a.size(); ++i) {
      equal = a[i].sender == b[i].sender && a[i].message == b[i].message &&
              a[i].receivers == b[i].receivers;
    }
    if (!equal) {
      report.first_mismatch_round = t;
      std::ostringstream detail;
      detail << "round " << t << ": central has " << a.size()
             << " transmissions, emergent has " << b.size();
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        const auto render = [](const std::vector<model::Transmission>& txs,
                               std::size_t j) -> std::string {
          if (j >= txs.size()) return "(none)";
          std::ostringstream s;
          s << "msg " << txs[j].message << ": " << txs[j].sender << " -> {";
          for (std::size_t k = 0; k < txs[j].receivers.size(); ++k) {
            s << (k > 0 ? ", " : "") << txs[j].receivers[k];
          }
          s << "}";
          return s.str();
        };
        const std::string ca = render(a, i);
        const std::string cb = render(b, i);
        if (ca != cb) {
          detail << "\n  central:  " << ca << "\n  emergent: " << cb;
        }
      }
      report.detail = detail.str();
      return report;
    }
  }
  report.match = true;
  return report;
}

DistOutcome run_distributed(const graph::Graph& g,
                            gossip::Algorithm algorithm,
                            const RuntimeOptions& options) {
  DistOutcome outcome{gossip::solve_gossip(g, algorithm), {}, {}};
  ActorRuntime runtime(outcome.central.instance, g, options);
  if (algorithm == gossip::Algorithm::kConcurrentUpDown) {
    runtime.use_online_rule();
  } else {
    runtime.use_timetable(outcome.central.schedule);
  }
  outcome.run = runtime.run(outcome.central.schedule.round_count());
  outcome.verify = verify_against_schedule(
      outcome.central.schedule, outcome.run.emergent,
      outcome.central.instance.vertex_count(),
      outcome.central.instance.radius());
  return outcome;
}

}  // namespace mg::dist
