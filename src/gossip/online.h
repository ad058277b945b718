// §4 online adaptation: "The only global information they need is the
// value of i, j, and k.  Once this information is disseminated throughout
// the network, each processor may send its messages at the specified
// times."
//
// `OnlineProcessor` encapsulates one processor: it is constructed from
// purely local information (its own labels, level, parent/child ids and
// the children's subtree intervals) and decides every transmission from
// that plus the messages it has observed arriving.  `run_online` executes
// the distributed protocol round by round; the resulting global schedule
// is identical to the offline ConcurrentUpDown schedule (asserted by the
// test suite and the online-vs-offline bench).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gossip/instance.h"
#include "model/schedule.h"

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
  std::vector<graph::Vertex> children;                     ///< DFS order
  std::vector<std::pair<tree::Label, tree::Label>> child_intervals;
};

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
  /// No child index: the down set is every child.
  static constexpr std::uint32_t kAllChildren = UINT32_MAX;

  /// Every down set the rules plan is all children, or all children but
  /// the one whose subtree owns the message (D3).  The union of such sets
  /// is again one of them, so a planned send stores no receiver list.
  void plan(std::size_t t, model::Message m, bool to_parent, bool down,
            std::uint32_t skip_child = kAllChildren);

  struct Planned {
    std::uint32_t t = 0;  ///< send time (label arithmetic, like Message)
    model::Message message = 0;
    std::uint32_t skip_child = kAllChildren;  ///< child left out of D
    bool to_parent = false;
    bool down = false;
  };

  LocalInfo info_;
  std::uint32_t w_ = 0;
  /// Pending sends in increasing time order; slots before head_ are spent.
  /// A relay for the current round reuses the spent slot just before head_
  /// and a deferred relay lands near the back, so insertions seldom shift
  /// entries, and storage tracks the sends still pending (a time-indexed
  /// window would also hold an empty slot for every round before a
  /// processor's first send).
  std::vector<Planned> planned_;
  std::size_t head_ = 0;
};

/// Runs all processors round by round and returns the emergent global
/// schedule (message ids are DFS labels, as for the offline algorithms).
[[nodiscard]] model::Schedule run_online(const Instance& instance);

}  // namespace mg::gossip
