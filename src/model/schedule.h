// The paper's communication-schedule formalism (§1).
//
// A *communication round* C is a set of tuples (m, l, D): message m, held
// by processor P_l, is multicast to the set of processors with indices in
// D.  A round must satisfy the network's rules: all D sets pairwise
// disjoint (each processor receives at most one message) and all sender
// indices l distinct (each processor sends at most one message).  A
// *communication schedule* is a sequence of rounds; its *total
// communication time* equals the latest time a message is received — a
// message sent in round t is received at time t + 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mg::model {

using graph::Vertex;

/// Message identifier.  By the paper's convention message `m` is the one
/// originating at the processor whose DFS label is `m`; on general (non
/// relabeled) instances it is simply the origin processor index.
using Message = std::uint32_t;

/// One schedule tuple (m, l, D).
struct Transmission {
  Message message = 0;
  Vertex sender = 0;
  std::vector<Vertex> receivers;  ///< the D set; non-empty, sorted unique

  friend bool operator==(const Transmission&, const Transmission&) = default;
};

/// One communication round: all transmissions sent at the same time unit.
using Round = std::vector<Transmission>;

/// A sequence of communication rounds.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t rounds) : rounds_(rounds) {}

  /// Takes fully built rounds (e.g. from a builder that sized them from
  /// per-round counts).  Every transmission passes the same receiver
  /// contract as `add`.
  explicit Schedule(std::vector<Round> rounds);

  [[nodiscard]] std::size_t round_count() const { return rounds_.size(); }
  [[nodiscard]] const Round& round(std::size_t t) const { return rounds_[t]; }
  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }

  /// Appends a transmission sent at time `t`, growing the schedule.
  void add(std::size_t t, Transmission tx);

  /// Drops empty trailing rounds.
  void trim();

  /// Splices every transmission of `tail` into this schedule, shifted so
  /// tail round t lands at round `offset + t` — the schedule-patching
  /// primitive (base prefix + repair suffix).
  void append(const Schedule& tail, std::size_t offset);

  /// Total communication time: latest receive time = (index of the last
  /// non-empty round) + 1; zero for an all-empty schedule.
  [[nodiscard]] std::size_t total_time() const;

  /// Number of (m, l, D) tuples over all rounds.
  [[nodiscard]] std::size_t transmission_count() const;

  /// Number of point-to-point deliveries (sum of |D|).
  [[nodiscard]] std::size_t delivery_count() const;

  /// Largest multicast fan-out |D| in the schedule (0 if empty).
  [[nodiscard]] std::size_t max_fanout() const;

  /// True when every D set is a singleton, i.e. the schedule is also valid
  /// under the telephone (unicasting) communication model.
  [[nodiscard]] bool is_telephone() const;

  /// Human-readable rendering ("t=3: msg 5: 2 -> {0, 4}").
  [[nodiscard]] std::string to_string() const;

 private:
  /// The D-set contract of `add`: non-empty, sorted, duplicate-free.
  static void check_receivers(const Transmission& tx);

  std::vector<Round> rounds_;
};

/// True when the two schedules perform exactly the same transmissions at
/// the same times (order within a round is immaterial).
[[nodiscard]] bool equivalent(const Schedule& a, const Schedule& b);

}  // namespace mg::model
