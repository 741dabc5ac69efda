// Correctness checks the benchmark computes apart from the program under
// test: a reference LRU of its own, trace facts it counts itself, and exact
// comparisons of the program's outputs against both. A run with any failed
// check reports "correct": false and exits non-zero.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/request.hpp"

namespace perfbench {

/// Records failed checks by description.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Facts about a trace, counted by the benchmark itself.
struct TraceFacts {
  std::uint64_t requests = 0;
  std::uint64_t distinct_keys = 0;
  std::uint64_t total_bytes = 0;  ///< sum of request sizes
};

[[nodiscard]] TraceFacts count_trace(std::span<const lhr::trace::Request> requests);

/// Byte-capacity LRU written independently of src/policies: admits every
/// object no larger than the capacity, evicts least-recently-used objects
/// until the newcomer fits, and leaves a hit object's size as admitted.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}
  bool access(const lhr::trace::Request& r);

 private:
  struct Entry {
    lhr::trace::Key key;
    std::uint64_t size;
  };
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<lhr::trace::Key, std::list<Entry>::iterator> where_;
};

[[nodiscard]] std::uint64_t reference_lru_hits(std::span<const lhr::trace::Request> requests,
                                               std::uint64_t capacity_bytes);

/// LRU's hit count (replayed without the §7.1 metadata deduction) equals the
/// reference LRU's.
void check_lru_matches_reference(Checks& checks, std::uint64_t lru_hits,
                                 std::uint64_t reference_hits);

/// The first request to each key must miss, so hits <= requests - distinct.
void check_hit_bound(Checks& checks, const std::string& who, std::uint64_t requests,
                     std::uint64_t hits, const TraceFacts& facts);

/// Simulated bytes conserve: the engine saw every request's bytes, and bytes
/// hit plus WAN bytes add up to them.
void check_sim_bytes(Checks& checks, const std::string& who, double bytes_requested,
                     double bytes_hit, double wan_bytes, const TraceFacts& facts);

/// Served bytes conserve: every request was served in full, none failed,
/// and the origin never sent more than was served.
void check_server_bytes(Checks& checks, const std::string& who, std::uint64_t requests,
                        std::uint64_t bytes_served, std::uint64_t wan_bytes,
                        std::uint64_t failed_requests, const TraceFacts& facts);

/// Two renderings that must be byte-identical (canonical summaries, repeated
/// passes of a deterministic replay).
void check_identical(Checks& checks, const std::string& what, const std::string& a,
                     const std::string& b);

/// Two score vectors that must be equal bit for bit (NaN included).
void check_bitwise_equal(Checks& checks, const std::string& what,
                         std::span<const double> got, std::span<const double> want);

}  // namespace perfbench
