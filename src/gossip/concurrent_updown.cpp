#include "gossip/concurrent_updown.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gossip/updown_rule.h"
#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

namespace {

using model::Round;
using model::Schedule;
using tree::Vertex;
using updown::Send;

/// The central runner of the send rule (updown_rule.h).  (U3)/(U4)/(D3)
/// are static, and the (D2) arrivals at v are exactly the parent's emitted
/// down sends that reach v, one round after they leave; so one preorder
/// pass plans each vertex into a reused time-indexed slot window, fuses,
/// and counts its sends per round.  Filling the rounds sender by sender in
/// ascending id then yields each round in (time, sender) order without a
/// sort.
Schedule emit(const Instance& instance, updown::Parts parts) {
  const auto& tree = instance.tree();
  const Vertex n = tree.vertex_count();
  const std::size_t horizon =
      static_cast<std::size_t>(n) + instance.radius() + 3;

  std::vector<Send> slots(horizon);
  std::vector<Send> sends;
  std::vector<std::uint32_t> begin(n, 0);
  std::vector<std::uint32_t> end(n, 0);
  std::vector<std::uint32_t> per_round(horizon, 0);
  std::size_t rounds = 0;
  LocalInfo info;

  for (Vertex v : tree.preorder()) {
    load_local_info(instance, v, info);
    std::size_t lo = horizon;
    std::size_t hi = 0;
    auto write = [&](const Send& send) {
      MG_ASSERT(send.time < horizon);
      lo = std::min<std::size_t>(lo, send.time);
      hi = std::max<std::size_t>(hi, send.time);
      updown::fuse(slots[send.time], send);
    };

    updown::plan_static(info, parts, write);
    if (parts.down && info.has_parent && !info.children.empty()) {
      const Vertex p = info.parent;
      for (std::uint32_t s = begin[p]; s < end[p]; ++s) {
        const Send& in = sends[s];
        if (!in.down || in.skip == v) continue;
        write(updown::relay(info, static_cast<std::size_t>(in.time) + 1,
                            in.message));
      }
    }

    // Fuse and count: one time-ordered scan of the touched window, which
    // also resets it for the next vertex.
    begin[v] = static_cast<std::uint32_t>(sends.size());
    for (std::size_t t = lo; t <= hi; ++t) {
      Send& slot = slots[t];
      if (!slot.used()) continue;
      sends.push_back(slot);
      ++per_round[t];
      rounds = std::max(rounds, t + 1);
      slot = Send{};
    }
    end[v] = static_cast<std::uint32_t>(sends.size());
  }

  // Fill rounds sender by sender: appending in ascending sender id keeps
  // every round in (time, sender) order, and one sender sends at most once
  // per round, so no sort is needed.
  std::vector<Round> out(rounds);
  for (std::size_t t = 0; t < rounds; ++t) out[t].reserve(per_round[t]);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex parent = tree.is_root(v) ? graph::kNoVertex : tree.parent(v);
    for (std::uint32_t s = begin[v]; s < end[v]; ++s) {
      const Send& send = sends[s];
      out[send.time].push_back(
          updown::transmission(v, parent, tree.children(v), send));
    }
  }
  return Schedule(std::move(out));
}

}  // namespace

Schedule propagate_up(const Instance& instance,
                      const ConcurrentUpDownOptions& options) {
  return emit(instance,
              {.down = false, .lookahead = options.lookahead_at_time_zero});
}

Schedule propagate_down(const Instance& instance) {
  return emit(instance, {.up = false});
}

Schedule concurrent_updown(const Instance& instance,
                           const ConcurrentUpDownOptions& options) {
  MG_OBS_SPAN(algo_span, "gossip.concurrent_updown");
  return emit(instance, {.lookahead = options.lookahead_at_time_zero});
}

}  // namespace mg::gossip
