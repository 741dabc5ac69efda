// Each benchmark check must pass on the right value and fail when fed a
// wrong one; the reference LRU must agree with policy::Lru.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "checks.hpp"
#include "gen/cdn_model.hpp"
#include "policies/lru.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using lhr::trace::Request;

Request req(lhr::trace::Key key, std::uint64_t size) {
  static double now = 0.0;
  return Request{now += 1.0, key, size};
}

TEST(ReferenceLru, EvictsLeastRecentlyUsedAndBypassesOversized) {
  ReferenceLru lru(10);
  EXPECT_FALSE(lru.access(req(1, 4)));
  EXPECT_FALSE(lru.access(req(2, 4)));
  EXPECT_TRUE(lru.access(req(1, 4)));   // order: 1, 2
  EXPECT_FALSE(lru.access(req(3, 4)));  // evicts 2
  EXPECT_FALSE(lru.access(req(2, 4)));  // evicts 1
  EXPECT_TRUE(lru.access(req(3, 4)));
  EXPECT_FALSE(lru.access(req(9, 11)));  // larger than the cache: bypassed
  EXPECT_TRUE(lru.access(req(2, 4)));
}

TEST(ReferenceLru, MatchesPolicyLruWithoutMetadataDeduction) {
  const auto tr = lhr::gen::make_trace(lhr::gen::TraceClass::kCdnC, 50'000, 7);
  const std::uint64_t capacity = lhr::gen::headline_cache_size(lhr::gen::TraceClass::kCdnC, 0.05);
  lhr::policy::Lru lru(capacity);
  lhr::sim::SimOptions options;
  options.deduct_metadata = false;
  const auto m = lhr::sim::simulate(lru, tr, options);
  ASSERT_GT(m.hits, 0u);
  Checks checks;
  check_lru_matches_reference(checks, m.hits, reference_lru_hits(tr.requests(), capacity));
  EXPECT_TRUE(checks.ok());
}

TEST(Checks, LruComparisonFailsOnAWrongHitCount) {
  Checks good, bad;
  check_lru_matches_reference(good, 100, 100);
  check_lru_matches_reference(bad, 101, 100);
  EXPECT_TRUE(good.ok());
  EXPECT_FALSE(bad.ok());
}

TEST(Checks, CountTraceCountsDistinctKeysAndBytes) {
  const std::vector<Request> r = {req(1, 5), req(2, 7), req(1, 5)};
  const TraceFacts f = count_trace(r);
  EXPECT_EQ(f.requests, 3u);
  EXPECT_EQ(f.distinct_keys, 2u);
  EXPECT_EQ(f.total_bytes, 17u);
}

TEST(Checks, HitBoundFailsAboveRequestsMinusDistinctKeys) {
  const TraceFacts f{.requests = 10, .distinct_keys = 4, .total_bytes = 100};
  Checks at_bound, above, wrong_count;
  check_hit_bound(at_bound, "p", 10, 6, f);
  check_hit_bound(above, "p", 10, 7, f);
  check_hit_bound(wrong_count, "p", 9, 2, f);
  EXPECT_TRUE(at_bound.ok());
  EXPECT_FALSE(above.ok());
  EXPECT_FALSE(wrong_count.ok());
}

TEST(Checks, SimBytesFailWhenBytesDoNotConserve) {
  const TraceFacts f{.requests = 3, .distinct_keys = 2, .total_bytes = 1000};
  Checks good, lost_request_bytes, extra_hit_bytes, negative;
  check_sim_bytes(good, "p", 1000.0, 300.0, 700.0, f);
  check_sim_bytes(lost_request_bytes, "p", 999.0, 300.0, 700.0, f);
  check_sim_bytes(extra_hit_bytes, "p", 1000.0, 301.0, 700.0, f);
  check_sim_bytes(negative, "p", 1000.0, -1.0, 1001.0, f);
  EXPECT_TRUE(good.ok());
  EXPECT_FALSE(lost_request_bytes.ok());
  EXPECT_FALSE(extra_hit_bytes.ok());
  EXPECT_FALSE(negative.ok());
}

TEST(Checks, ServerBytesFailOnShortServeFailuresOrExcessWan) {
  const TraceFacts f{.requests = 3, .distinct_keys = 2, .total_bytes = 1000};
  Checks good, short_serve, failed, excess_wan, wrong_count;
  check_server_bytes(good, "s", 3, 1000, 600, 0, f);
  check_server_bytes(short_serve, "s", 3, 999, 600, 0, f);
  check_server_bytes(failed, "s", 3, 1000, 600, 1, f);
  check_server_bytes(excess_wan, "s", 3, 1000, 1001, 0, f);
  check_server_bytes(wrong_count, "s", 2, 1000, 600, 0, f);
  EXPECT_TRUE(good.ok());
  EXPECT_FALSE(short_serve.ok());
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(excess_wan.ok());
  EXPECT_FALSE(wrong_count.ok());
}

TEST(Checks, IdenticalFailsOnOneByte) {
  Checks same, differ;
  check_identical(same, "summary", "hits=10\n", "hits=10\n");
  check_identical(differ, "summary", "hits=10\n", "hits=11\n");
  EXPECT_TRUE(same.ok());
  EXPECT_FALSE(differ.ok());
}

TEST(Checks, BitwiseEqualFailsOnOneUlpAndOnLength) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> want = {0.25, -1.5, nan};
  const std::vector<double> same = {0.25, -1.5, nan};
  const std::vector<double> ulp = {0.25, std::nextafter(-1.5, 0.0), nan};
  const std::vector<double> shorter = {0.25, -1.5};
  Checks ok, off_by_ulp, short_vec;
  check_bitwise_equal(ok, "scores", same, want);
  check_bitwise_equal(off_by_ulp, "scores", ulp, want);
  check_bitwise_equal(short_vec, "scores", shorter, want);
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(off_by_ulp.ok());
  EXPECT_FALSE(short_vec.ok());
}

}  // namespace
}  // namespace perfbench
