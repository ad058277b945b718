// §4 online adaptation: "The only global information they need is the
// value of i, j, and k.  Once this information is disseminated throughout
// the network, each processor may send its messages at the specified
// times."
//
// `OnlineProcessor` is one processor: it is constructed from purely local
// information (`LocalInfo`: its own labels, level, parent/child ids and the
// children's subtree ends) and decides every transmission from that plus
// the messages it observes arriving.  It is the arrival-driven runner of
// the send rule in updown_rule.h; the central emitter is the other one.
// The rule itself is pinned independently of both runners: golden schedule
// digests, the paper's step windows and the model validator (tests).
// `run_online` executes the protocol round by round.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "gossip/instance.h"
#include "gossip/updown_rule.h"
#include "model/schedule.h"

namespace mg::gossip {

/// Extracts `LocalInfo` for vertex `v` (the dissemination step).
[[nodiscard]] LocalInfo local_info_for(const Instance& instance,
                                       graph::Vertex v);

/// One processor executing ConcurrentUpDown from local information.
class OnlineProcessor {
 public:
  explicit OnlineProcessor(LocalInfo info);

  /// Observes message `m` arriving at time `t`.  `from_parent` distinguishes
  /// the o-message stream (which triggers the dynamic (D2) relays) from
  /// child deliveries.
  void deliver(std::size_t t, model::Message m, bool from_parent);

  /// The transmission this processor performs at time `t`, if any.  Must be
  /// called after all `deliver(t, ...)` calls for the same `t` (receive
  /// happens before send within a round), with `t` never decreasing from
  /// call to call; sends planned before `t` that were never asked for are
  /// dropped.
  [[nodiscard]] std::optional<model::Transmission> send_at(std::size_t t);

  [[nodiscard]] const LocalInfo& info() const { return info_; }

 private:
  /// Fuses `send` into the pending list, keeping it sorted by time.
  void plan(const updown::Send& send);

  LocalInfo info_;
  /// Pending sends in increasing time order; slots before head_ are spent.
  /// A relay for the current round reuses the spent slot just before head_
  /// and a deferred relay lands near the back, so insertions seldom shift
  /// entries, and storage tracks the sends still pending (a time-indexed
  /// window would also hold an empty slot for every round before a
  /// processor's first send).
  std::vector<updown::Send> planned_;
  std::size_t head_ = 0;
};

/// Runs all processors round by round and returns the emergent global
/// schedule (message ids are DFS labels, as for the offline algorithms).
[[nodiscard]] model::Schedule run_online(const Instance& instance);

}  // namespace mg::gossip
