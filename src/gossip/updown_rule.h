// The ConcurrentUpDown send rule of one processor (§3.2 steps U3/U4 and
// D2/D3), written once.  §4: "The only global information they need is the
// value of i, j, and k" — plus the processor's own parent and child ids and
// where each child's label block ends.
//
// Two runners execute this rule and keep only their own storage:
//  * the central emitter (concurrent_updown.cpp) plans every vertex into a
//    reused slot window and reads the (D2) arrivals statically from the
//    parent's emitted sends;
//  * `OnlineProcessor` (online.h) plans into its own pending list and is
//    driven by the arrivals it observes — the `run_online` loop and every
//    `mg::dist` actor.
// The rule itself allocates nothing: only `load_local_info` (growing a
// reused `LocalInfo`) and the receiver list `transmission` returns do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gossip/instance.h"
#include "model/schedule.h"
#include "support/contracts.h"

namespace mg::gossip {

/// Everything processor `self` knows before the protocol starts.
struct LocalInfo {
  std::uint32_t n = 0;          ///< number of processors (and messages)
  graph::Vertex self = 0;
  tree::Label i = 0;            ///< own DFS label / own message id
  tree::Label j = 0;            ///< last label in own subtree
  std::uint32_t k = 0;          ///< level in the tree
  bool has_parent = false;
  /// True when this vertex is its parent's first DFS child (i = i' + 1),
  /// i.e. its own message is the parent's lip-message.  One locally known
  /// bit: the processor's label is one more than its parent's.
  bool first_child = false;
  graph::Vertex parent = graph::kNoVertex;
  std::vector<graph::Vertex> children;  ///< DFS order (= ascending id)
  /// Last label of each child's subtree.  The starts are implied: DFS
  /// children own consecutive label blocks beginning at i + 1.
  std::vector<tree::Label> child_ends;
};

/// Fills `info` for vertex `v` (the dissemination step), reusing its
/// storage.
inline void load_local_info(const Instance& instance, graph::Vertex v,
                            LocalInfo& info) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  info.n = tree.vertex_count();
  info.self = v;
  info.i = labels.label(v);
  info.j = labels.subtree_end(v);
  info.k = tree.level(v);
  info.has_parent = !tree.is_root(v);
  info.first_child = info.has_parent && labels.lip_count(v) == 1;
  info.parent = info.has_parent ? tree.parent(v) : graph::kNoVertex;
  const auto kids = tree.children(v);
  info.children.assign(kids.begin(), kids.end());
  info.child_ends.clear();
  for (const graph::Vertex c : kids) {
    info.child_ends.push_back(labels.subtree_end(c));
  }
}

namespace updown {

/// Everything one processor transmits at one time.  A down send reaches
/// all children except `skip` (graph::kNoVertex: none skipped); an up send
/// reaches the parent.  A cell with neither flag set is free.
struct Send {
  std::uint32_t time = 0;
  model::Message message = 0;
  graph::Vertex skip = graph::kNoVertex;
  bool to_parent = false;
  bool down = false;

  [[nodiscard]] bool used() const { return to_parent || down; }
};

/// Which components of ConcurrentUpDown to plan.
struct Parts {
  bool up = true;
  bool down = true;
  /// Step (U3); off reproduces the paper's "stuck in the root" ablation.
  bool lookahead = true;
};

/// Folds `send` into `cell`, the processor's send at the same time.
/// Theorem 1: overlapping sends always carry the same message, so they
/// fuse into one multicast (parent + child subset).  Every down set the
/// rule plans is all children or all but one, so two different skips
/// union to all children.
inline void fuse(Send& cell, const Send& send) {
  if (!cell.used()) {
    cell = send;
    return;
  }
  MG_ASSERT_MSG(cell.message == send.message,
                "ConcurrentUpDown would send two messages at one time");
  cell.to_parent = cell.to_parent || send.to_parent;
  if (send.down) {
    cell.skip = cell.down && cell.skip != send.skip ? graph::kNoVertex
                                                    : send.skip;
    cell.down = true;
  }
}

/// The static part of the rule, (U3)/(U4)/(D3): a function of (i, j, k),
/// the lookahead bit and the children's label blocks alone.  Calls
/// `sink(Send)` once per send time, in increasing time order, with the up
/// and down sends of that time already fused.
template <class Sink>
void plan_static(const LocalInfo& p, Parts parts, Sink&& sink) {
  const bool up = parts.up && p.has_parent;
  const bool down = parts.down && !p.children.empty();
  const tree::Label i = p.i;
  const tree::Label j = p.j;
  const std::uint32_t k = p.k;
  MG_ASSERT(i >= k);  // DFS preorder label is at least the depth
  const std::uint32_t w = up && parts.lookahead && p.first_child ? 1u : 0u;

  // (U3): the lip-message leaves for the parent at time 0.
  if (w == 1) sink(Send{0, i, graph::kNoVertex, true, false});
  // (U4): rip-messages i+w..j leave for the parent at times i-k+w..j-k.
  // (D3): b-messages i..j go down at times i-k..j-k, each skipping the
  // child that already owns it; message i goes to all children, delayed to
  // time j-k+1 when i == k (it would otherwise collide with the first
  // child's (U1) lookahead receive at time 1).  Children own consecutive
  // label blocks, so the owner advances with m; an only child owns every
  // b-message but i, so then only message i goes down.
  std::size_t owner = 0;
  for (tree::Label m = i; m <= j; ++m) {
    Send send{m - k, m};
    send.to_parent = up && m >= i + w;
    if (down && m == i) {
      send.down = i != k;
    } else if (down && p.children.size() > 1) {
      if (m > p.child_ends[owner]) ++owner;
      send.down = true;
      send.skip = p.children[owner];
    }
    if (send.used()) sink(send);
  }
  if (down && i == k) sink(Send{j - k + 1, i, graph::kNoVertex, false, true});
}

/// (D2): the relay of o-message `m`, arriving from the parent at time
/// `arrival`, to all children.  It leaves the round it arrives, except
/// arrivals at times i-k and i-k+1, which wait until j-k+1 and j-k+2 (the
/// send slots i-k..j-k are taken by (D3)).
[[nodiscard]] inline Send relay(const LocalInfo& p, std::size_t arrival,
                                model::Message m) {
  const std::size_t ik = p.i - p.k;
  std::size_t t = arrival;
  if (arrival == ik) {
    t = static_cast<std::size_t>(p.j - p.k) + 1;
  } else if (arrival == ik + 1) {
    t = static_cast<std::size_t>(p.j - p.k) + 2;
  }
  return Send{static_cast<std::uint32_t>(t), m, graph::kNoVertex, false,
              true};
}

/// The transmission of fused `send` by `self`: its receivers are the
/// children but `send.skip` (if down) and the parent (if up), merged into
/// ascending order.  `children` must be ascending.
[[nodiscard]] inline model::Transmission transmission(
    graph::Vertex self, graph::Vertex parent,
    std::span<const graph::Vertex> children, const Send& send) {
  model::Transmission tx{send.message, self, {}};
  bool parent_pending = send.to_parent;
  const std::size_t kids =
      send.down ? children.size() - (send.skip == graph::kNoVertex ? 0 : 1)
                : 0;
  tx.receivers.reserve(kids + (parent_pending ? 1 : 0));
  if (send.down) {
    for (const graph::Vertex c : children) {
      if (c == send.skip) continue;
      if (parent_pending && parent < c) {
        tx.receivers.push_back(parent);
        parent_pending = false;
      }
      tx.receivers.push_back(c);
    }
  }
  if (parent_pending) tx.receivers.push_back(parent);
  return tx;
}

}  // namespace updown
}  // namespace mg::gossip
