#include "gossip/concurrent_updown.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/span.h"
#include "support/contracts.h"

namespace mg::gossip {

namespace {

using model::Message;
using model::Round;
using model::Schedule;
using model::Transmission;
using tree::Label;
using tree::Vertex;

/// Everything one vertex transmits in one round.  A down send reaches all
/// children except `skip` (graph::kNoVertex: none skipped); an up send
/// reaches the parent.  Also the cell type of the time-indexed slot array,
/// where a cell with neither flag set is free.
struct Send {
  std::uint32_t time = 0;
  Message message = 0;
  Vertex skip = graph::kNoVertex;
  bool to_parent = false;
  bool down = false;

  [[nodiscard]] bool used() const { return to_parent || down; }
};

/// Which components of ConcurrentUpDown to emit.
struct Parts {
  bool up = false;
  bool down = false;
  bool lookahead = true;
};

/// Receivers of one fused send: v's children minus `skip` (if down), plus
/// the parent (if up), merged into ascending order.
std::vector<Vertex> receivers_of(const tree::RootedTree& tree, Vertex v,
                                 const Send& send) {
  const auto kids = send.down ? tree.children(v) : std::span<const Vertex>{};
  const Vertex parent = tree.parent(v);
  bool parent_pending = send.to_parent;
  std::vector<Vertex> receivers;
  receivers.reserve(kids.size() + (parent_pending ? 1 : 0) -
                    (send.skip == graph::kNoVertex ? 0 : 1));
  for (Vertex c : kids) {
    if (c == send.skip) continue;
    if (parent_pending && parent < c) {
      receivers.push_back(parent);
      parent_pending = false;
    }
    receivers.push_back(c);
  }
  if (parent_pending) receivers.push_back(parent);
  return receivers;
}

/// The closed-form emitter.  Every send of (U3)/(U4)/(D2)/(D3) is a
/// function of the sender's (i, j, k) and, for (D2), of the parent's down
/// sends; so one preorder pass writes each vertex's sends into a reused
/// time-indexed slot array, fuses them, and counts them per round.  Filling
/// the rounds sender by sender in ascending id then yields each round in
/// (time, sender) order without a sort.
Schedule emit(const Instance& instance, Parts parts) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  const Vertex n = tree.vertex_count();
  const std::size_t horizon =
      static_cast<std::size_t>(n) + instance.radius() + 3;

  std::vector<Send> slots(horizon);
  std::vector<Send> sends;
  std::vector<std::uint32_t> begin(n, 0);
  std::vector<std::uint32_t> end(n, 0);
  std::vector<std::uint32_t> per_round(horizon, 0);
  std::size_t rounds = 0;

  for (Vertex v : tree.preorder()) {
    const Label i = labels.label(v);
    const Label j = labels.subtree_end(v);
    const std::uint32_t k = tree.level(v);
    MG_ASSERT(i >= k);  // DFS preorder label is at least the depth
    std::size_t lo = horizon;
    std::size_t hi = 0;

    auto write = [&](std::size_t t, Message m, bool to_parent, bool down,
                     Vertex skip) {
      MG_ASSERT(t < horizon);
      Send& slot = slots[t];
      lo = std::min(lo, t);
      hi = std::max(hi, t);
      if (!slot.used()) {
        slot = {static_cast<std::uint32_t>(t), m, skip, to_parent, down};
        return;
      }
      // Theorem 1: overlapping sends always carry the same message, so
      // they fuse into one multicast (parent + child subset).
      MG_ASSERT_MSG(slot.message == m,
                    "up/down schedules send different messages at one time");
      slot.to_parent = slot.to_parent || to_parent;
      if (down) {
        // Two child subsets of one message: skips differ, so all children.
        slot.skip = slot.down && slot.skip != skip ? graph::kNoVertex : skip;
        slot.down = true;
      }
    };

    if (parts.up && !tree.is_root(v)) {
      const std::uint32_t w = parts.lookahead ? labels.lip_count(v) : 0;
      // (U3): the lip-message leaves for the parent at time 0.
      if (w == 1) write(0, i, true, false, graph::kNoVertex);
      // (U4): rip-messages i+w..j leave sequentially at times i-k+w..j-k.
      for (Label m = i + w; m <= j; ++m) {
        write(m - k, m, true, false, graph::kNoVertex);
      }
    }

    if (parts.down && !tree.is_leaf(v)) {
      // (D3): b-messages i..j go down at times i-k..j-k in label order,
      // each skipping the child that already owns it; message i goes to
      // all children, delayed to time j-k+1 when i == k (it would
      // otherwise collide with the first child's (U1) lookahead receive at
      // time 1).  Children own consecutive label blocks, so the owner
      // advances with m.
      const auto kids = tree.children(v);
      write(i == k ? j - k + 1 : i - k, i, false, true, graph::kNoVertex);
      if (kids.size() > 1) {
        std::size_t owner = 0;
        for (Label m = i + 1; m <= j; ++m) {
          if (m > labels.subtree_end(kids[owner])) ++owner;
          write(m - k, m, false, true, kids[owner]);
        }
      }

      // (D2): o-messages relayed to all children the round they arrive
      // from the parent, except arrivals at times i-k and i-k+1, which
      // wait until j-k+1 and j-k+2 (the send slots i-k..j-k are taken by
      // (D3)).  The arrivals are exactly the parent's down sends carrying
      // messages outside [i, j], one round after they leave.
      if (!tree.is_root(v)) {
        const Vertex p = tree.parent(v);
        for (std::uint32_t s = begin[p]; s < end[p]; ++s) {
          const Send& in = sends[s];
          if (!in.down || labels.is_body(v, in.message)) continue;
          const std::size_t t_arrive = static_cast<std::size_t>(in.time) + 1;
          std::size_t t_send = t_arrive;
          if (t_arrive == static_cast<std::size_t>(i - k)) {
            t_send = static_cast<std::size_t>(j - k) + 1;
          } else if (t_arrive == static_cast<std::size_t>(i - k) + 1) {
            t_send = static_cast<std::size_t>(j - k) + 2;
          }
          write(t_send, in.message, false, true, graph::kNoVertex);
        }
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
    for (std::uint32_t s = begin[v]; s < end[v]; ++s) {
      const Send& send = sends[s];
      out[send.time].push_back(
          Transmission{send.message, v, receivers_of(tree, v, send)});
    }
  }
  return Schedule(std::move(out));
}

}  // namespace

Schedule propagate_up(const Instance& instance,
                      const ConcurrentUpDownOptions& options) {
  return emit(instance, {.up = true,
                         .down = false,
                         .lookahead = options.lookahead_at_time_zero});
}

Schedule propagate_down(const Instance& instance) {
  return emit(instance, {.up = false, .down = true});
}

Schedule concurrent_updown(const Instance& instance,
                           const ConcurrentUpDownOptions& options) {
  MG_OBS_SPAN(algo_span, "gossip.concurrent_updown");
  return emit(instance, {.up = true,
                         .down = true,
                         .lookahead = options.lookahead_at_time_zero});
}

}  // namespace mg::gossip
