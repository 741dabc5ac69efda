// perfbench: the repository benchmark program.
//
//   perfbench        --workload NAME --seed N --seconds S [--work-dir DIR]
//   perfbench_traced --workload NAME --seed N --seconds S [--work-dir DIR]
//
// The untraced program prints the end-to-end metrics; the traced program
// (built with the counting allocator) prints the per-layer metrics. Both
// print human-readable lines first and one JSON object as the last line of
// stdout. perfbench/run.py builds both and picks one from --trace.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/proc_replay.hpp"
#include "util/parse.hpp"

namespace perfbench {

namespace {

// Trace lengths are chosen so one pass lasts seconds (see README "Noise").
constexpr std::array<Workload, 3> kWorkloads{{
    {"lhr-cdn-a", lhr::gen::TraceClass::kCdnA, 1'000'000},
    {"baselines-cdn-c", lhr::gen::TraceClass::kCdnC, 1'000'000},
    {"serve-wiki", lhr::gen::TraceClass::kWiki, 1'000'000},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<std::string>& baseline_policies() {
  static const std::vector<std::string> names = {
      "LRU", "FIFO", "S4LRU", "ARC", "2Q", "B-LRU", "SecondHit", "W-TinyLFU", "GDSF"};
  return names;
}

std::string RunContext::work_path(std::string_view stem) const {
  return work_dir + "/" + std::string(stem) + "-" + std::to_string(::getpid()) + ".lhrt";
}

void Result::add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::print(const Checks& checks) const {
  bool correct = checks.ok();
  std::string metrics;
  for (const auto& m : metrics_) {
    // JSON has no NaN or infinity; a metric that is not finite is a fault.
    const bool finite = std::isfinite(m.value);
    correct = correct && finite;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", finite ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              metrics.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest child.
  std::printf("peak RSS: this process %.1f MB, largest child %.1f MB\n",
              static_cast<double>(self.ru_maxrss) * 1024.0 / 1e6,
              static_cast<double>(children.ru_maxrss) * 1024.0 / 1e6);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) * 1024.0 / 1e6;
}

}  // namespace perfbench

namespace {

int usage(const char* what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload lhr-cdn-a|baselines-cdn-c|"
               "serve-wiki --seed N --seconds S [--work-dir DIR]\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  // The process fan-out re-execs this binary as its replay workers.
  if (const int rc = lhr::core::proc_replay_worker_main(argc, argv); rc >= 0) return rc;

  perfbench::RunContext ctx;
  ctx.process_start = process_start;
  ctx.work_dir = ".bench_build/work";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (i + 1 >= argc) return usage("missing value after a flag");
      const std::string_view value = argv[++i];
      if (arg == "--workload") {
        ctx.workload = perfbench::find_workload(value);
        if (ctx.workload == nullptr) return usage("unknown workload");
      } else if (arg == "--seed") {
        ctx.seed = lhr::util::require_u64(arg, value);
      } else if (arg == "--seconds") {
        ctx.seconds = lhr::util::require_double(arg, value);
      } else if (arg == "--work-dir") {
        ctx.work_dir = std::string(value);
      } else {
        return usage("unknown flag");
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (ctx.workload == nullptr) return usage("--workload is required");
  if (!(ctx.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Result result;
  perfbench::Checks checks;
  try {
    std::filesystem::create_directories(ctx.work_dir);
    if (perfbench::alloc::counting()) {
      perfbench::run_layers(ctx, result, checks);
    } else {
      perfbench::run_end_to_end(ctx, result, checks);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  result.print(checks);
  return checks.ok() ? 0 : 1;
}
