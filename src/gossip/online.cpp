#include "gossip/online.h"

#include <algorithm>
#include <utility>

namespace mg::gossip {

using model::Message;
using model::Transmission;
using updown::Send;

LocalInfo local_info_for(const Instance& instance, graph::Vertex v) {
  LocalInfo info;
  load_local_info(instance, v, info);
  return info;
}

OnlineProcessor::OnlineProcessor(LocalInfo info) : info_(std::move(info)) {
  // The static sends come in increasing time order, one per time; (D2) is
  // driven by arrivals.
  planned_.reserve(info_.j - info_.i + 2);
  updown::plan_static(info_, {},
                      [&](const Send& send) { planned_.push_back(send); });
}

void OnlineProcessor::plan(const Send& send) {
  const auto pending = planned_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::lower_bound(
      pending, planned_.end(), send.time,
      [](const Send& p, std::uint32_t time) { return p.time < time; });
  if (it != planned_.end() && it->time == send.time) {
    updown::fuse(*it, send);
  } else if (it == pending && head_ > 0) {
    planned_[--head_] = send;
  } else {
    planned_.insert(it, send);
  }
}

void OnlineProcessor::deliver(std::size_t t, Message m, bool from_parent) {
  if (!from_parent || info_.children.empty()) return;
  plan(updown::relay(info_, t, m));
}

std::optional<Transmission> OnlineProcessor::send_at(std::size_t t) {
  // Sends planned before t were asked for by no one: drop them.
  while (head_ < planned_.size() && planned_[head_].time < t) ++head_;
  std::optional<Transmission> tx;
  if (head_ < planned_.size() && planned_[head_].time == t) {
    tx = updown::transmission(info_.self, info_.parent, info_.children,
                              planned_[head_++]);
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
  if (n <= 1) return {};

  std::vector<OnlineProcessor> procs;
  procs.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    procs.emplace_back(local_info_for(instance, v));
  }

  const std::size_t horizon =
      static_cast<std::size_t>(n) + instance.radius();
  model::Schedule schedule(horizon);
  // Deliveries sent last round along the o-stream, (child, message): only
  // those drive a processor's relays; a delivery to a parent plans none.
  std::vector<std::pair<graph::Vertex, Message>> in_flight;
  for (std::size_t t = 0; t < horizon; ++t) {
    for (const auto& [r, m] : in_flight) procs[r].deliver(t, m, true);
    in_flight.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      auto tx = procs[v].send_at(t);
      if (!tx) continue;
      for (graph::Vertex r : tx->receivers) {
        if (tree.parent(r) == v) in_flight.emplace_back(r, tx->message);
      }
      schedule.add(t, std::move(*tx));
    }
  }
  schedule.trim();
  return schedule;
}

}  // namespace mg::gossip
