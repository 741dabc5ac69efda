#include "checks.hpp"

#include <cstring>
#include <unordered_set>

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

TraceFacts count_trace(std::span<const lhr::trace::Request> requests) {
  TraceFacts facts;
  std::unordered_set<lhr::trace::Key> keys;
  keys.reserve(requests.size());
  for (const auto& r : requests) {
    keys.insert(r.key);
    facts.total_bytes += r.size;
  }
  facts.requests = requests.size();
  facts.distinct_keys = keys.size();
  return facts;
}

bool ReferenceLru::access(const lhr::trace::Request& r) {
  if (const auto it = where_.find(r.key); it != where_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  if (r.size > capacity_) return false;
  while (used_ + r.size > capacity_) {
    used_ -= order_.back().size;
    where_.erase(order_.back().key);
    order_.pop_back();
  }
  order_.push_front(Entry{r.key, r.size});
  where_[r.key] = order_.begin();
  used_ += r.size;
  return false;
}

std::uint64_t reference_lru_hits(std::span<const lhr::trace::Request> requests,
                                 std::uint64_t capacity_bytes) {
  ReferenceLru lru(capacity_bytes);
  std::uint64_t hits = 0;
  for (const auto& r : requests) hits += lru.access(r) ? 1 : 0;
  return hits;
}

void check_lru_matches_reference(Checks& checks, std::uint64_t lru_hits,
                                 std::uint64_t reference_hits) {
  checks.expect(lru_hits == reference_hits,
                "LRU hits " + std::to_string(lru_hits) + " != reference LRU hits " +
                    std::to_string(reference_hits));
}

void check_hit_bound(Checks& checks, const std::string& who, std::uint64_t requests,
                     std::uint64_t hits, const TraceFacts& facts) {
  checks.expect(requests == facts.requests,
                who + ": replayed " + std::to_string(requests) + " requests, trace has " +
                    std::to_string(facts.requests));
  checks.expect(hits + facts.distinct_keys <= facts.requests,
                who + ": hits " + std::to_string(hits) + " exceed requests - distinct keys (" +
                    std::to_string(facts.requests - facts.distinct_keys) + ")");
}

void check_sim_bytes(Checks& checks, const std::string& who, double bytes_requested,
                     double bytes_hit, double wan_bytes, const TraceFacts& facts) {
  // Request sizes are integers and their sum stays far below 2^53, so the
  // engine's double sums are exact and the comparisons below are too.
  const auto total = static_cast<double>(facts.total_bytes);
  checks.expect(bytes_requested == total,
                who + ": engine counted " + std::to_string(bytes_requested) +
                    " requested bytes, trace sums to " + std::to_string(facts.total_bytes));
  checks.expect(bytes_hit >= 0.0 && wan_bytes >= 0.0 && bytes_hit + wan_bytes == total,
                who + ": bytes hit " + std::to_string(bytes_hit) + " + WAN " +
                    std::to_string(wan_bytes) + " != " + std::to_string(facts.total_bytes));
}

void check_server_bytes(Checks& checks, const std::string& who, std::uint64_t requests,
                        std::uint64_t bytes_served, std::uint64_t wan_bytes,
                        std::uint64_t failed_requests, const TraceFacts& facts) {
  checks.expect(requests == facts.requests,
                who + ": served " + std::to_string(requests) + " requests, trace has " +
                    std::to_string(facts.requests));
  checks.expect(bytes_served == facts.total_bytes,
                who + ": bytes served " + std::to_string(bytes_served) + " != " +
                    std::to_string(facts.total_bytes));
  checks.expect(failed_requests == 0,
                who + ": " + std::to_string(failed_requests) + " failed requests");
  checks.expect(wan_bytes <= bytes_served,
                who + ": WAN bytes " + std::to_string(wan_bytes) + " exceed bytes served");
}

void check_identical(Checks& checks, const std::string& what, const std::string& a,
                     const std::string& b) {
  checks.expect(a == b, what + " differ");
}

void check_bitwise_equal(Checks& checks, const std::string& what,
                         std::span<const double> got, std::span<const double> want) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = std::memcmp(&got[i], &want[i], sizeof(double)) == 0;
  }
  checks.expect(same, what + " are not bit-identical");
}

}  // namespace perfbench
