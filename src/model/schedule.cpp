#include "model/schedule.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "support/contracts.h"

namespace mg::model {

Schedule::Schedule(std::vector<Round> rounds) : rounds_(std::move(rounds)) {
  for (const auto& round : rounds_) {
    for (const auto& tx : round) check_receivers(tx);
  }
}

void Schedule::check_receivers(const Transmission& tx) {
  MG_EXPECTS_MSG(!tx.receivers.empty(), "transmission must have receivers");
  MG_EXPECTS_MSG(std::is_sorted(tx.receivers.begin(), tx.receivers.end()),
                 "receiver set must be sorted");
  MG_EXPECTS_MSG(std::adjacent_find(tx.receivers.begin(),
                                    tx.receivers.end()) == tx.receivers.end(),
                 "receiver set must be duplicate-free");
}

void Schedule::add(std::size_t t, Transmission tx) {
  check_receivers(tx);
  if (t >= rounds_.size()) rounds_.resize(t + 1);
  rounds_[t].push_back(std::move(tx));
}

void Schedule::trim() {
  while (!rounds_.empty() && rounds_.back().empty()) rounds_.pop_back();
}

void Schedule::append(const Schedule& tail, std::size_t offset) {
  const std::size_t wanted = offset + tail.round_count();
  if (wanted > rounds_.size()) rounds_.resize(wanted);
  for (std::size_t t = 0; t < tail.round_count(); ++t) {
    const Round& src = tail.round(t);
    Round& dst = rounds_[offset + t];
    dst.insert(dst.end(), src.begin(), src.end());
  }
}

std::size_t Schedule::total_time() const {
  for (std::size_t t = rounds_.size(); t > 0; --t) {
    if (!rounds_[t - 1].empty()) return t;
  }
  return 0;
}

std::size_t Schedule::transmission_count() const {
  std::size_t total = 0;
  for (const auto& round : rounds_) total += round.size();
  return total;
}

std::size_t Schedule::delivery_count() const {
  std::size_t total = 0;
  for (const auto& round : rounds_) {
    for (const auto& tx : round) total += tx.receivers.size();
  }
  return total;
}

std::size_t Schedule::max_fanout() const {
  std::size_t fanout = 0;
  for (const auto& round : rounds_) {
    for (const auto& tx : round) {
      fanout = std::max(fanout, tx.receivers.size());
    }
  }
  return fanout;
}

bool Schedule::is_telephone() const {
  for (const auto& round : rounds_) {
    for (const auto& tx : round) {
      if (tx.receivers.size() != 1) return false;
    }
  }
  return true;
}

bool equivalent(const Schedule& a, const Schedule& b) {
  const std::size_t rounds = std::max(a.round_count(), b.round_count());
  auto normalized = [](const Schedule& s, std::size_t t) {
    std::vector<std::tuple<Vertex, Message, std::vector<Vertex>>> round;
    if (t < s.round_count()) {
      for (const auto& tx : s.round(t)) {
        round.emplace_back(tx.sender, tx.message, tx.receivers);
      }
    }
    std::sort(round.begin(), round.end());
    return round;
  };
  for (std::size_t t = 0; t < rounds; ++t) {
    if (normalized(a, t) != normalized(b, t)) return false;
  }
  return true;
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  for (std::size_t t = 0; t < rounds_.size(); ++t) {
    if (rounds_[t].empty()) continue;
    out << "t=" << t << ":";
    for (const auto& tx : rounds_[t]) {
      out << "  msg " << tx.message << ": " << tx.sender << " -> {";
      for (std::size_t r = 0; r < tx.receivers.size(); ++r) {
        out << (r ? ", " : "") << tx.receivers[r];
      }
      out << "}";
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace mg::model
