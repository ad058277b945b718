#include "dist/actor.h"

#include <algorithm>
#include <bit>

#include "support/contracts.h"

namespace mg::dist {

using graph::Vertex;
using model::Message;

std::optional<model::Transmission> TimetableRule::decide(std::size_t t) {
  if (next_ >= rows_.size() || rows_[next_].first != t) return std::nullopt;
  return std::move(rows_[next_++].second);  // each row fires once
}

ProcessorActor::ProcessorActor(Vertex self, Vertex n, Message initial,
                               std::vector<Vertex> neighbors,
                               std::unique_ptr<LocalRule> rule)
    : self_(self),
      n_(n),
      neighbors_(std::move(neighbors)),
      rule_(std::move(rule)),
      holds_(n),
      first_trace_(n, 0) {
  holds_.set(initial);
}

void ProcessorActor::absorb(std::size_t t,
                            const std::vector<Envelope>& inbox) {
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kData) continue;
    if (!holds_.test(e.message)) {
      first_trace_[e.message] = e.trace;
      last_trace_ = e.trace;
    }
    holds_.set(e.message);
    rule_->observe(t, e.message, e.from_parent);
  }
}

Outbox ProcessorActor::step_main(std::size_t t,
                                 const std::vector<Envelope>& inbox) {
  absorb(t, inbox);
  Outbox out;
  if (auto tx = rule_->decide(t)) {
    if (holds_.test(tx->message)) {
      out.data_cause = first_trace_[tx->message];
      out.data = std::move(tx);
    } else {
      // Physical constraint: the rule scheduled a relay of a message this
      // actor never received (a fault's downstream cascade).
      out.skipped = true;
      out.data = std::move(tx);
    }
  }
  return out;
}

void ProcessorActor::learn(const std::vector<Envelope>& inbox) {
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kData) continue;
    if (!holds_.test(e.message)) {
      first_trace_[e.message] = e.trace;
      last_trace_ = e.trace;
    }
    holds_.set(e.message);
  }
}

Outbox ProcessorActor::step_digest() {
  Outbox out;
  out.control_cause = last_trace_;
  const std::vector<std::uint64_t>& words = holds_.words();
  digest_snapshot_.assign(words.begin(), words.end());
  Envelope& digest = out.control.emplace();
  digest.kind = Envelope::Kind::kDigest;
  digest.sender = self_;
  digest.digest = digest_snapshot_;
  out.control_to = neighbors_;
  return out;
}

Outbox ProcessorActor::step_grant(const std::vector<Envelope>& inbox) {
  Outbox out;
  quiescent_ = true;
  // Delayed data envelopes (per-edge fault delays) can land on any flip of
  // the recovery cycle; fold them in before deciding what is still wanted.
  learn(inbox);
  if (complete()) return out;

  // Which live neighbor offers the most messages I lack?  (A neighbor
  // whose digest is absent is presumed crashed.)  Word-parallel: the
  // wanted set is digest & ~holds, a word at a time; bits past n are zero
  // in every hold set, so they are never wanted.
  const std::vector<std::uint64_t>& mine = holds_.words();
  Vertex best = graph::kNoVertex;
  std::size_t best_offered = 0;
  Message best_request = 0;
  std::uint64_t best_trace = 0;
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kDigest) continue;
    std::size_t offered = 0;
    Message lowest = 0;
    const std::size_t words = std::min(e.digest.size(), mine.size());
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t wanted = e.digest[w] & ~mine[w];
      if (wanted == 0) continue;
      if (offered == 0) {
        lowest = static_cast<Message>(w * 64 + static_cast<std::size_t>(
                                                    std::countr_zero(wanted)));
      }
      offered += static_cast<std::size_t>(std::popcount(wanted));
    }
    if (offered > best_offered ||
        (offered == best_offered && offered > 0 && e.sender < best)) {
      best = e.sender;
      best_offered = offered;
      best_request = lowest;
      best_trace = e.trace;
    }
  }
  if (best_offered == 0) return out;  // nothing wanted is on offer: quiesce

  quiescent_ = false;
  out.control_cause = best_trace;  // the digest that won the reservation
  Envelope& grant = out.control.emplace();
  grant.kind = Envelope::Kind::kGrant;
  grant.sender = self_;
  grant.message = best_request;
  // Digests come only from network neighbors, so `best` is one of them.
  const auto it = std::find(neighbors_.begin(), neighbors_.end(), best);
  MG_ASSERT(it != neighbors_.end());
  out.control_to = std::span(neighbors_).subspan(
      static_cast<std::size_t>(it - neighbors_.begin()), 1);
  return out;
}

Outbox ProcessorActor::step_data(const std::vector<Envelope>& inbox) {
  Outbox out;
  learn(inbox);
  // Votes as (requested message, granter) pairs, sorted so the result does
  // not depend on the inbox's seeded shuffle.
  votes_.clear();
  for (const Envelope& e : inbox) {
    if (e.kind != Envelope::Kind::kGrant) continue;
    MG_ASSERT_MSG(holds_.test(e.message),
                  "grant requested a message the digest never offered");
    votes_.emplace_back(e.message, e.sender);
  }
  if (votes_.empty()) return out;
  std::sort(votes_.begin(), votes_.end());
  // The most-requested message; ties go to the lowest id (the first run).
  std::size_t winner = 0;
  std::size_t winner_votes = 0;
  for (std::size_t run = 0; run < votes_.size();) {
    std::size_t end = run + 1;
    while (end < votes_.size() && votes_[end].first == votes_[run].first) {
      ++end;
    }
    if (end - run > winner_votes) {
      winner = run;
      winner_votes = end - run;
    }
    run = end;
  }
  model::Transmission tx;
  tx.message = votes_[winner].first;
  tx.sender = self_;
  tx.receivers.reserve(winner_votes);
  for (std::size_t i = winner; i < winner + winner_votes; ++i) {
    tx.receivers.push_back(votes_[i].second);  // sorted by granter id
  }
  out.data_cause = first_trace_[tx.message];
  out.data = std::move(tx);
  return out;
}

}  // namespace mg::dist
