// Shared pieces of the repository benchmark: the workload table, the run
// context, timing helpers, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/proc_replay.hpp"
#include "gen/cdn_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark workload: a calibrated trace class, its length, and the
/// class's headline cache size scaled to that length (gen::headline_cache_size).
struct Workload {
  std::string_view name;
  lhr::gen::TraceClass trace_class;
  std::size_t requests;

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return lhr::gen::headline_cache_size(trace_class,
                                         static_cast<double>(requests) / 1e6);
  }
};

/// Null when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The baselines-cdn-c policy set, in replay order. LIRS and AdaptSize are
/// left out: either one alone takes longer than all of these together.
[[nodiscard]] const std::vector<std::string>& baseline_policies();

/// The serving job of serve-wiki: a CdnServer over a 16-shard ShardedCache
/// of LRU with a lognormal(sigma=0.5) origin and no fault schedule, replaying
/// the .lhrt at `trace_path` on `procs` processes of one thread each.
[[nodiscard]] lhr::core::ProcReplayJob serve_job(const Workload& w,
                                                 const std::string& trace_path,
                                                 std::size_t procs);

/// Removes a scratch file when the run ends, however it ends.
struct ScratchFile {
  explicit ScratchFile(std::string p) : path(std::move(p)) {}
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() { std::remove(path.c_str()); }
  const std::string path;
};

struct RunContext {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;           ///< scratch files (.lhrt traces) go here
  Clock::time_point process_start;

  /// A file name under work_dir unique to this process.
  [[nodiscard]] std::string work_path(std::string_view stem) const;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
class Result {
 public:
  void add(std::string name, double value, std::string unit);
  std::uint64_t attempted = 0;
  /// Prints the JSON line to stdout. No operation of these workloads fails:
  /// a wrong outcome is a failed check, which fails the whole run instead.
  void print(const Checks& checks) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set in MB (10^6 bytes) of this process, or of its largest
/// reaped child when that is larger.
[[nodiscard]] double peak_rss_mb();

/// The untraced run: end-to-end metrics (e2e.cpp).
void run_end_to_end(const RunContext& ctx, Result& result, Checks& checks);

/// The traced run: per-layer metrics (layers.cpp).
void run_layers(const RunContext& ctx, Result& result, Checks& checks);

}  // namespace perfbench
