// Round-synchronized message bus for the `mg::dist` actor runtime.
//
// Every processor actor owns one mailbox.  During a round, the runtime posts
// each actor's envelopes to the other actors' boxes; the bus buffers them by
// arrival time — a message posted at round t arrives at t + 1 (+ any
// per-edge fault delay).  At the round barrier `flip()` swaps every due box
// with its receiver's read-only inbox (both keep their capacity, so a warm
// bus allocates nothing) and orders the inbox *deterministically*:
// envelopes are first sorted by a canonical key (kind, sender, message),
// then shuffled with an Rng seeded from (seed, round, receiver).  The
// shuffle makes delivery order adversarial — actors must not depend on it —
// while keeping every run bit-identical for a fixed seed (the dist stress
// battery and its golden digests assert exactly that).  The bus is
// single-threaded, like the runtime that drives it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "model/schedule.h"
#include "support/contracts.h"
#include "support/rng.h"

namespace mg::dist {

/// One message on the (in-process) wire.  Data envelopes carry a gossip
/// message; digest/grant envelopes are the decentralized recovery
/// protocol's control plane (see actor.h).  Trivially copyable: a digest
/// is a view, not a copy.
struct Envelope {
  enum class Kind : std::uint8_t {
    kData = 0,    ///< a gossip message (the only kind the timeline sees)
    kDigest = 1,  ///< recovery: sender's hold bitmap (words)
    kGrant = 2,   ///< recovery: receiver-side reservation of one sender
  };
  Kind kind = Kind::kData;
  graph::Vertex sender = 0;
  model::Message message = 0;  ///< payload for kData; requested id for kGrant
  /// True when the sender is the receiver's tree parent — the one bit of
  /// link-local context the §4 online rule needs (o-stream vs child
  /// deliveries).  Meaningless for control envelopes.
  bool from_parent = false;
  /// Trace id of the logical transmission this envelope belongs to,
  /// stamped by the runtime's capture phase (0 = untraced).  Every
  /// envelope of one multicast shares one id.  Not part of the canonical
  /// delivery order — ids are themselves deterministic under a fixed seed,
  /// but actors must not decide from them.
  std::uint64_t trace = 0;
  /// kDigest: the sender's hold bitmap words.  A view of a snapshot the
  /// sending actor owns and rewrites only at its next digest step; digests
  /// are posted with delay 0 (`MailboxBus::post` asserts it), so every
  /// reader consumes the snapshot at the very next flip, before it changes.
  std::span<const std::uint64_t> digest;
};

static_assert(std::is_trivially_copyable_v<Envelope>);

/// Canonical pre-shuffle order.  Posting order is already deterministic,
/// but the shuffle permutes whatever it is given, so the sort stays: it
/// fixes the shuffle's input, and with it every delivery order and every
/// output the golden digests pin.  It also keeps delivery order independent
/// of how the runtime happens to sequence its posts.
inline bool envelope_less(const Envelope& a, const Envelope& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.sender != b.sender) return a.sender < b.sender;
  return a.message < b.message;
}

class MailboxBus {
 public:
  /// `n` mailboxes; `seed` drives the per-(round, receiver) delivery
  /// shuffle.  `max_delay` is the largest extra in-flight time an envelope
  /// can carry (fault::FaultPlan::max_extra_delay()).
  MailboxBus(graph::Vertex n, std::uint64_t seed, std::size_t max_delay = 0)
      : n_(n),
        seed_(seed),
        // Delays 0..max_delay land in distinct slots of the ring, each
        // flipped exactly `delay` barriers after the next one.
        slots_(static_cast<std::size_t>(max_delay) + 1),
        boxes_(static_cast<std::size_t>(n) * slots_),
        inboxes_(n) {}

  MailboxBus(const MailboxBus&) = delete;
  MailboxBus& operator=(const MailboxBus&) = delete;

  /// Posts `e` to `to`, arriving `delay` rounds after the next barrier
  /// (0 = the normal send-at-t, receive-at-t+1 latency).  Control
  /// envelopes always travel with delay 0, so a digest is read at the next
  /// flip, before its owner rewrites the snapshot it views.  Writes a box,
  /// never an inbox: what `inbox()` returns is stable until the next flip.
  void post(graph::Vertex to, std::size_t delay, const Envelope& e) {
    MG_ASSERT_MSG(delay == 0 || e.kind == Envelope::Kind::kData,
                  "control envelopes must arrive at the next flip");
    box(to, (cursor_ + delay) % slots_).push_back(e);
  }

  /// Round barrier: makes every envelope due now readable via `inbox()`,
  /// in the canonical-sorted-then-seed-shuffled order.
  void flip(std::size_t round) {
    for (graph::Vertex v = 0; v < n_; ++v) {
      auto& due = box(v, cursor_);
      std::sort(due.begin(), due.end(), envelope_less);
      if (due.size() > 1) {
        Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (round + 1)) ^
                (0xd1b54a32d192ed03ULL * (static_cast<std::uint64_t>(v) + 1)));
        rng.shuffle(due);
      }
      // Swap, not move: the old inbox becomes the (cleared) box, so both
      // buffers keep their capacity across rounds.
      inboxes_[v].swap(due);
      due.clear();
    }
    cursor_ = (cursor_ + 1) % slots_;
  }

  /// The envelopes delivered to `v` at the last `flip()`.  Stable until the
  /// next flip; actors read their own inbox only.
  [[nodiscard]] const std::vector<Envelope>& inbox(graph::Vertex v) const {
    return inboxes_[v];
  }

  /// Discards everything still in flight (used when a phase ends).
  void drain() {
    for (auto& b : boxes_) b.clear();
    for (auto& i : inboxes_) i.clear();
  }

 private:
  std::vector<Envelope>& box(graph::Vertex v, std::size_t slot) {
    return boxes_[static_cast<std::size_t>(v) * slots_ + slot];
  }

  graph::Vertex n_;
  std::uint64_t seed_;
  std::size_t slots_;
  std::size_t cursor_ = 0;
  /// boxes_[v * slots_ + s]: envelopes for v arriving at barrier slot s.
  std::vector<std::vector<Envelope>> boxes_;
  std::vector<std::vector<Envelope>> inboxes_;
};

}  // namespace mg::dist
