#include "gossip/online.h"

#include <algorithm>

#include "support/contracts.h"

namespace mg::gossip {

using model::Message;
using model::Transmission;
using tree::Label;

LocalInfo local_info_for(const Instance& instance, graph::Vertex v) {
  const auto& tree = instance.tree();
  const auto& labels = instance.labels();
  LocalInfo info;
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
  for (graph::Vertex c : info.children) {
    info.child_intervals.emplace_back(labels.label(c), labels.subtree_end(c));
  }
  return info;
}

OnlineProcessor::OnlineProcessor(LocalInfo info) : info_(std::move(info)) {
  const Label i = info_.i;
  const Label j = info_.j;
  const std::uint32_t k = info_.k;
  w_ = info_.first_child ? 1u : 0u;

  // (U3)/(U4)/(D3) are static functions of (i, j, k, w) and the children's
  // intervals: plan them now.  (D2) is dynamic (driven by arrivals).
  if (info_.has_parent) {
    // (U3): the lip-message leaves at time 0.
    if (w_ == 1) plan(0, i, /*to_parent=*/true, /*down=*/false);
    // (U4): rip-messages i+w..j leave at times i-k+w..j-k.
    for (Label m = i + w_; m <= j; ++m) {
      plan(m - k, m, /*to_parent=*/true, /*down=*/false);
    }
  }
  // (D3): b-messages go down at times i-k..j-k (message i to all children,
  // delayed to j-k+1 when i == k; others skip the owning child).
  if (!info_.children.empty()) {
    for (Label m = i; m <= j; ++m) {
      std::uint32_t skip = kAllChildren;
      if (m != i) {
        // Child intervals partition i+1..j: exactly one child owns m.
        for (std::size_t c = 0; c < info_.children.size(); ++c) {
          const auto& [ci, cj] = info_.child_intervals[c];
          if (m >= ci && m <= cj) skip = static_cast<std::uint32_t>(c);
        }
        if (info_.children.size() == 1 && skip != kAllChildren) continue;
      }
      const std::size_t t = (m == i && i == k)
                                ? static_cast<std::size_t>(j - k + 1)
                                : static_cast<std::size_t>(m - k);
      plan(t, m, /*to_parent=*/false, /*down=*/true, skip);
    }
  }
}

void OnlineProcessor::plan(std::size_t t, Message m, bool to_parent,
                           bool down, std::uint32_t skip_child) {
  const auto pending = planned_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::lower_bound(
      pending, planned_.end(), t,
      [](const Planned& p, std::size_t time) { return p.t < time; });
  if (it == planned_.end() || it->t != t) {
    if (it == pending && head_ > 0) {
      it = planned_.begin() + static_cast<std::ptrdiff_t>(--head_);
      *it = Planned{};
    } else {
      it = planned_.insert(it, Planned{});
    }
    it->t = static_cast<std::uint32_t>(t);
    it->message = m;
  } else {
    MG_ASSERT_MSG(it->message == m,
                  "online protocol would send two messages at one time");
  }
  Planned& p = *it;
  if (to_parent) p.to_parent = true;
  if (down) {
    // Union of down sets: two different skipped children cover them all.
    p.skip_child = p.down && p.skip_child != skip_child ? kAllChildren
                                                        : skip_child;
    p.down = true;
  }
}

void OnlineProcessor::deliver(std::size_t t, Message m, bool from_parent) {
  if (!from_parent || info_.children.empty()) return;
  // (D2): relay the o-message the round it arrives, except arrivals at
  // times i-k and i-k+1 which wait until j-k+1 and j-k+2.
  const std::size_t ik = info_.i - info_.k;
  std::size_t t_send = t;
  if (t == ik) {
    t_send = info_.j - info_.k + 1;
  } else if (t == ik + 1) {
    t_send = static_cast<std::size_t>(info_.j - info_.k) + 2;
  }
  plan(t_send, m, /*to_parent=*/false, /*down=*/true);
}

std::optional<Transmission> OnlineProcessor::send_at(std::size_t t) {
  // Sends planned before t were asked for by no one: drop them.
  while (head_ < planned_.size() && planned_[head_].t < t) ++head_;
  std::optional<Transmission> tx;
  if (head_ < planned_.size() && planned_[head_].t == t) {
    const Planned& p = planned_[head_++];
    tx.emplace();
    tx->message = p.message;
    tx->sender = info_.self;
    tx->receivers.reserve(info_.children.size() + 1);
    if (p.down) {
      for (std::size_t c = 0; c < info_.children.size(); ++c) {
        if (c != p.skip_child) tx->receivers.push_back(info_.children[c]);
      }
    }
    if (p.to_parent) tx->receivers.push_back(info_.parent);
    std::sort(tx->receivers.begin(), tx->receivers.end());
  }
  if (head_ == planned_.size()) {
    // Nothing pending.  Once the static plans are spent, a processor only
    // ever holds the one relay of the current round: free their storage.
    if (planned_.capacity() > 1) {
      planned_ = {};
    } else {
      planned_.clear();
    }
    head_ = 0;
  }
  return tx;
}

model::Schedule run_online(const Instance& instance) {
  const auto& tree = instance.tree();
  const graph::Vertex n = tree.vertex_count();
  model::Schedule schedule;
  if (n <= 1) return schedule;

  std::vector<OnlineProcessor> procs;
  procs.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    procs.emplace_back(local_info_for(instance, v));
  }

  const std::size_t horizon =
      static_cast<std::size_t>(n) + instance.radius();
  // In-flight deliveries: (receiver, message, from_parent) sent last round.
  std::vector<std::tuple<graph::Vertex, Message, bool>> in_flight;
  for (std::size_t t = 0; t < horizon; ++t) {
    for (const auto& [r, m, fp] : in_flight) procs[r].deliver(t, m, fp);
    in_flight.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      auto tx = procs[v].send_at(t);
      if (!tx) continue;
      for (graph::Vertex r : tx->receivers) {
        const bool from_parent = tree.parent(r) == v;
        in_flight.emplace_back(r, tx->message, from_parent);
      }
      schedule.add(t, std::move(*tx));
    }
  }
  schedule.trim();
  return schedule;
}

}  // namespace mg::gossip
