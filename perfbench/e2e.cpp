// The untraced run: each workload replays whole passes for --seconds and
// reports end-to-end metrics. A pass is one round of identical operations
// (a fresh policy or server replaying the whole trace), so every run attempts
// whole rounds. Throughput is the requests of all passes over their summed
// timed seconds (steadier across runs than the median pass); the simulated
// quantities (hits, WAN bytes, metadata) must repeat exactly from pass to
// pass and are taken from the first.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/lhr_cache.hpp"
#include "core/policy_factory.hpp"
#include "core/proc_replay.hpp"
#include "sim/engine.hpp"
#include "trace/lhrt.hpp"

namespace perfbench {

namespace {

namespace gen = lhr::gen;
namespace sim = lhr::sim;
namespace core = lhr::core;
namespace server = lhr::server;
namespace trace = lhr::trace;

/// The deterministic outcome of one simulate() pass, rendered exactly.
std::string sim_fingerprint(const std::string& who, const sim::SimMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s hits=%llu bytes_hit=%.17g peak_meta=%llu\n",
                who.c_str(), static_cast<unsigned long long>(m.hits), m.bytes_hit,
                static_cast<unsigned long long>(m.peak_metadata_bytes));
  return buf;
}

/// Requests replayed over the seconds they took, summed over passes.
struct Throughput {
  double requests = 0.0;
  double seconds = 0.0;
  void add(std::size_t n, double s) {
    requests += static_cast<double>(n);
    seconds += s;
  }
  [[nodiscard]] double per_second() const { return requests / seconds; }
};

/// Runs `pass` at least once, and again while another pass is expected to
/// end within --seconds; returns the number of passes. `pass(i)` returns the
/// pass's own timed seconds.
template <typename Pass>
std::size_t run_passes(const RunContext& ctx, Pass&& pass) {
  const auto t0 = Clock::now();
  std::vector<double> iterations;
  do {
    const auto t = Clock::now();
    const double s = pass(iterations.size());
    iterations.push_back(seconds_since(t));
    std::printf("pass %zu: %.3f s\n", iterations.size(), s);
    std::fflush(stdout);
  } while (seconds_since(t0) + median(iterations) <= ctx.seconds);
  return iterations.size();
}

void print_facts(const TraceFacts& f) {
  std::printf("trace: %llu requests, %llu distinct keys, %.1f GB requested\n",
              static_cast<unsigned long long>(f.requests),
              static_cast<unsigned long long>(f.distinct_keys),
              static_cast<double>(f.total_bytes) / 1e9);
}

/// `rss_mb` is read right after the passes, before the benchmark's own checks
/// allocate anything.
void add_common(Result& result, double setup_s, double requests_per_s, double rss_mb,
                std::uint64_t hits, double wan_bytes, double metadata_bytes) {
  result.add("setup_s", setup_s, "s");
  result.add("requests_per_s", requests_per_s, "req/s");
  result.add("peak_rss_mb", rss_mb, "MB");
  result.add("hits", static_cast<double>(hits), "count");
  result.add("wan_gb", wan_bytes / 1e9, "GB");
  result.add("metadata_mb", metadata_bytes / 1e6, "MB");
}

// LHR with synchronous training and the default LhrConfig.
void lhr_cdn_a(const RunContext& ctx, Result& result, Checks& checks) {
  const Workload& w = *ctx.workload;
  const trace::Trace tr = gen::make_trace(w.trace_class, w.requests, ctx.seed);
  auto cache = std::make_unique<core::LhrCache>(w.capacity_bytes(), core::LhrConfig{});
  const double setup_s = seconds_since(ctx.process_start);

  Throughput rate;
  sim::SimMetrics first;
  std::string first_print;
  const std::size_t passes = run_passes(ctx, [&](std::size_t i) {
    if (!cache) cache = std::make_unique<core::LhrCache>(w.capacity_bytes(), core::LhrConfig{});
    const auto t0 = Clock::now();
    sim::SimMetrics m = sim::simulate(*cache, tr);
    const double s = seconds_since(t0);
    cache.reset();
    rate.add(tr.size(), s);
    if (i == 0) {
      first = std::move(m);
      first_print = sim_fingerprint("LHR", first);
    } else {
      check_identical(checks, "LHR outcomes of pass 1 and pass " + std::to_string(i + 1),
                      first_print, sim_fingerprint("LHR", m));
    }
    return s;
  });
  result.attempted = passes * tr.size();
  const double rss_mb = peak_rss_mb();

  const TraceFacts facts = count_trace(tr.requests());
  print_facts(facts);
  check_hit_bound(checks, "LHR", first.requests, first.hits, facts);
  check_sim_bytes(checks, "LHR", first.bytes_requested, first.bytes_hit,
                  first.wan_traffic_bytes(), facts);
  add_common(result, setup_s, rate.per_second(), rss_mb, first.hits, first.wan_traffic_bytes(),
             static_cast<double>(first.peak_metadata_bytes));
}

// LRU, FIFO, S4LRU, ARC, 2Q, B-LRU, SecondHit, W-TinyLFU and GDSF, one after
// another; a pass is the whole set.
void baselines_cdn_c(const RunContext& ctx, Result& result, Checks& checks) {
  const Workload& w = *ctx.workload;
  const auto& names = baseline_policies();
  const trace::Trace tr = gen::make_trace(w.trace_class, w.requests, ctx.seed);
  const auto build = [&] {
    std::vector<std::unique_ptr<sim::CachePolicy>> set;
    for (const auto& name : names) set.push_back(core::make_policy(name, w.capacity_bytes()));
    return set;
  };
  auto policies = build();
  const double setup_s = seconds_since(ctx.process_start);

  Throughput rate;
  std::vector<sim::SimMetrics> first(names.size());
  std::string first_print;
  const std::size_t passes = run_passes(ctx, [&](std::size_t i) {
    if (policies.empty()) policies = build();
    double s = 0.0;
    std::string print;
    for (std::size_t p = 0; p < names.size(); ++p) {
      const auto t0 = Clock::now();
      sim::SimMetrics m = sim::simulate(*policies[p], tr);
      s += seconds_since(t0);
      print += sim_fingerprint(names[p], m);
      if (i == 0) first[p] = std::move(m);
    }
    policies.clear();
    rate.add(names.size() * tr.size(), s);
    if (i == 0) {
      first_print = print;
    } else {
      check_identical(checks, "policy outcomes of pass 1 and pass " + std::to_string(i + 1),
                      first_print, print);
    }
    return s;
  });
  result.attempted = passes * names.size() * tr.size();
  const double rss_mb = peak_rss_mb();

  const TraceFacts facts = count_trace(tr.requests());
  print_facts(facts);
  std::uint64_t hits = 0;
  double wan = 0.0;
  double metadata = 0.0;
  for (std::size_t p = 0; p < names.size(); ++p) {
    const sim::SimMetrics& m = first[p];
    check_hit_bound(checks, names[p], m.requests, m.hits, facts);
    check_sim_bytes(checks, names[p], m.bytes_requested, m.bytes_hit, m.wan_traffic_bytes(),
                    facts);
    hits += m.hits;
    wan += m.wan_traffic_bytes();
    metadata += static_cast<double>(m.peak_metadata_bytes);
    std::printf("%-10s hits %llu  metadata %llu B\n", names[p].c_str(),
                static_cast<unsigned long long>(m.hits),
                static_cast<unsigned long long>(m.peak_metadata_bytes));
  }

  // The reference LRU has no metadata, so compare against LRU replayed
  // without the §7.1 capacity deduction.
  auto lru = core::make_policy("LRU", w.capacity_bytes());
  sim::SimOptions no_deduction;
  no_deduction.deduct_metadata = false;
  const sim::SimMetrics lru_plain = sim::simulate(*lru, tr, no_deduction);
  check_lru_matches_reference(checks, lru_plain.hits,
                              reference_lru_hits(tr.requests(), w.capacity_bytes()));

  add_common(result, setup_s, rate.per_second(), rss_mb, hits, wan, metadata);
}

// CdnServer over a 16-shard ShardedCache of LRU, replayed in-process (1x1)
// and fanned out to 2 processes x 1 thread; a pass is both legs.
void serve_wiki(const RunContext& ctx, Result& result, Checks& checks) {
  const Workload& w = *ctx.workload;
  const ScratchFile file{ctx.work_path("serve-wiki")};
  const trace::Trace tr = gen::make_trace(w.trace_class, w.requests, ctx.seed);
  trace::write_lhrt_file(tr, file.path, ctx.seed, static_cast<std::int32_t>(w.trace_class));
  const trace::MappedTrace mapped(file.path);
  const core::ProcReplayJob in_process = serve_job(w, file.path, 1);
  const core::ProcReplayJob fan_out = serve_job(w, file.path, 2);
  auto srv = core::make_job_server(in_process);
  const double setup_s = seconds_since(ctx.process_start);

  Throughput rate;
  Throughput procs_rate;
  server::ServerReport first;
  const std::size_t passes = run_passes(ctx, [&](std::size_t i) {
    if (!srv) srv = core::make_job_server(in_process);
    auto t0 = Clock::now();
    server::ServerReport report =
        srv->replay_concurrent(mapped, server::ReplayMode::kNormal, 1);
    const double s = seconds_since(t0);
    srv.reset();
    t0 = Clock::now();
    const server::ServerReport fanned = core::run_proc_replay(fan_out);
    const double procs_s = seconds_since(t0);
    rate.add(mapped.size(), s);
    procs_rate.add(mapped.size(), procs_s);

    check_identical(checks, "canonical summaries of the in-process and 2-process replays",
                    report.canonical_summary(), fanned.canonical_summary());
    if (i == 0) {
      first = std::move(report);
    } else {
      check_identical(checks, "canonical summaries of pass 1 and pass " + std::to_string(i + 1),
                      first.canonical_summary(), report.canonical_summary());
    }
    return s + procs_s;
  });
  result.attempted = passes * 2 * mapped.size();
  const double rss_mb = peak_rss_mb();

  const TraceFacts facts = count_trace(tr.requests());
  print_facts(facts);
  check_hit_bound(checks, "serve-wiki", first.requests, first.hits, facts);
  check_server_bytes(checks, "serve-wiki", first.requests, first.bytes_served,
                     first.wan_bytes, first.failed_requests, facts);
  std::printf("in-process %.0f req/s, 2 processes %.0f req/s; "
              "simulated latency p90 %.6f ms, p99 %.6f ms\n",
              rate.per_second(), procs_rate.per_second(), first.p90_latency_ms,
              first.p99_latency_ms);
  add_common(result, setup_s, rate.per_second(), rss_mb, first.hits,
             static_cast<double>(first.wan_bytes),
             static_cast<double>(first.peak_metadata_bytes));
}

}  // namespace

core::ProcReplayJob serve_job(const Workload& w, const std::string& trace_path,
                              std::size_t procs) {
  core::ProcReplayJob job;
  job.trace_path = trace_path;
  job.policy = "LRU";
  job.capacity_bytes = w.capacity_bytes();
  job.shards = 16;
  job.procs = procs;
  job.threads = 1;
  job.origin_profile = "lognormal:sigma=0.5";
  return job;
}

void run_end_to_end(const RunContext& ctx, Result& result, Checks& checks) {
  const std::string_view name = ctx.workload->name;
  if (name == "lhr-cdn-a") {
    lhr_cdn_a(ctx, result, checks);
  } else if (name == "baselines-cdn-c") {
    baselines_cdn_c(ctx, result, checks);
  } else {
    serve_wiki(ctx, result, checks);
  }
}

}  // namespace perfbench
