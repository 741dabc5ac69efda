// The traced run: each layer's public functions replayed alone over the
// workload's own trace, timed from here (nothing inside src/ is
// instrumented). Heap growth comes from the counting allocator this program
// is linked with. Values are kept in memory per round and written once at
// the end; with more than one round each metric is the median over rounds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/lhr_cache.hpp"
#include "core/policy_factory.hpp"
#include "core/proc_replay.hpp"
#include "hazard/hro.hpp"
#include "ml/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/zipf_detector.hpp"
#include "server/proc_replay.hpp"
#include "sim/engine.hpp"
#include "trace/lhrt.hpp"

namespace perfbench {

namespace {

namespace gen = lhr::gen;
namespace sim = lhr::sim;
namespace core = lhr::core;
namespace server = lhr::server;
namespace trace = lhr::trace;
namespace ml = lhr::ml;
namespace hazard = lhr::hazard;

/// Fits per round are capped: CDN-C closes a window every few thousand
/// requests, and the fits of the first windows already show the layer.
constexpr std::size_t kMaxFits = 8;
/// Repeats of the sub-millisecond calls (compile, encode, decode, merge).
constexpr std::size_t kSmallRepeats = 200;
/// Minimum time spent repeating the cheap whole-trace passes (scan, engine).
constexpr double kCheapPassSeconds = 0.3;

struct LayerMetric {
  std::string name;
  const char* unit;
};

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"gen.trace_s", "s"},
      {"trace.lhrt_write_s", "s"},
      {"trace.scan_ns", "ns"},
      {"sim.engine_ns", "ns"},
  };
  for (const auto& p : baseline_policies()) {
    m.push_back({"policies." + p + ".access_ns", "ns"});
    m.push_back({"policies." + p + ".counted_kb", "KiB"});
    m.push_back({"policies." + p + ".modeled_kb", "KiB"});
  }
  const std::vector<LayerMetric> rest = {
      {"hazard.classify_ns", "ns"},
      {"hazard.counted_kb", "KiB"},
      {"hazard.modeled_kb", "KiB"},
      {"ml.extract_ns", "ns"},
      {"ml.zipf_close_us", "us"},
      {"ml.fit_ms", "ms"},
      {"ml.fit_rows_per_s", "rows/s"},
      {"ml.compile_us", "us"},
      {"ml.score_row_ns", "ns"},
      {"ml.score_block_ns", "ns"},
      {"core.access_p50_ns", "ns"},
      {"core.access_p99_ns", "ns"},
      {"core.stall_max_ms", "ms"},
      {"core.train_s", "s"},
      {"core.trainings", "count"},
      {"core.counted_kb", "KiB"},
      {"core.modeled_kb", "KiB"},
      {"server.serve_ns", "ns"},
      {"server.slice_s", "s"},
      {"server.encode_us", "us"},
      {"server.decode_us", "us"},
      {"server.merge_us", "us"},
      {"server.fanout_overhead_s", "s"},
      {"server.procs_requests_per_s", "req/s"},
      {"server.origin_fetches", "count"},
      {"server.latency_p50_ms", "ms"},
      {"server.latency_p99_ms", "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// One round's values, keyed by metric name.
using Round = std::map<std::string, double>;

/// Times repeated calls of `pass` for at least kCheapPassSeconds and returns
/// the median seconds of one call.
template <typename Pass>
double median_pass_seconds(Pass&& pass) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    pass();
    times.push_back(seconds_since(t));
  } while (seconds_since(t0) < kCheapPassSeconds);
  return median(times);
}

/// A policy that never caches: simulate() over it is the engine alone.
class NullPolicy final : public sim::CachePolicy {
 public:
  explicit NullPolicy(std::uint64_t capacity) : capacity_(capacity) {}
  [[nodiscard]] std::string name() const override { return "null"; }
  bool access(const trace::Request&) override { return false; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return capacity_; }
  void set_capacity(std::uint64_t bytes) override { capacity_ = bytes; }

 private:
  std::uint64_t capacity_;
};

/// Collects every access() wall time LhrCache reports through the engine.
class AccessTimes final : public sim::SimObserver {
 public:
  explicit AccessTimes(std::size_t n) { seconds.reserve(n); }
  void on_request(std::size_t, const trace::Request&, bool, double s) override {
    seconds.push_back(s);
  }
  std::vector<double> seconds;
};

double percentile(std::vector<double> v, double q) {
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

void trace_layers(const RunContext& ctx, const trace::Trace& tr, const std::string& path,
                  Round& v, Checks& checks) {
  auto t = Clock::now();
  trace::write_lhrt_file(tr, path, ctx.seed,
                         static_cast<std::int32_t>(ctx.workload->trace_class));
  v["trace.lhrt_write_s"] = seconds_since(t);

  std::uint64_t want = 0;
  for (const auto& r : tr) want += r.key ^ r.size;
  const trace::MappedTrace mapped(path);
  std::uint64_t got = 0;
  const double scan_s = median_pass_seconds([&] {
    got = 0;
    auto cursor = mapped.cursor();
    for (auto chunk = cursor->next_chunk(); !chunk.empty(); chunk = cursor->next_chunk()) {
      for (const auto& r : chunk) got += r.key ^ r.size;
    }
  });
  checks.expect(got == want, "MappedTrace cursor pass does not reproduce the trace");
  v["trace.scan_ns"] = scan_s / static_cast<double>(tr.size()) * 1e9;

  NullPolicy null_policy(ctx.workload->capacity_bytes());
  const double engine_s = median_pass_seconds([&] { (void)sim::simulate(null_policy, tr); });
  v["sim.engine_ns"] = engine_s / static_cast<double>(tr.size()) * 1e9;
}

void policy_layers(const RunContext& ctx, const trace::Trace& tr, const TraceFacts& facts,
                   Round& v, Checks& checks) {
  for (const auto& name : baseline_policies()) {
    const alloc::PeakScope heap;
    auto policy = core::make_policy(name, ctx.workload->capacity_bytes());
    const auto t = Clock::now();
    const sim::SimMetrics m = sim::simulate(*policy, tr);
    const double s = seconds_since(t);
    v["policies." + name + ".access_ns"] = s / static_cast<double>(tr.size()) * 1e9;
    v["policies." + name + ".counted_kb"] = heap.peak_kib();
    v["policies." + name + ".modeled_kb"] = static_cast<double>(m.peak_metadata_bytes) / 1024.0;
    check_hit_bound(checks, name, m.requests, m.hits, facts);
    check_sim_bytes(checks, name, m.bytes_requested, m.bytes_hit, m.wan_traffic_bytes(), facts);
  }
}

/// HRO at LHR's capacity and window multiple; returns the index one past the
/// last request of every window HRO closed, and fills `labels`.
std::vector<std::size_t> hazard_layer(const RunContext& ctx, const trace::Trace& tr,
                                      std::vector<float>& labels, Round& v) {
  const core::LhrConfig lhr_config;
  labels.assign(tr.size(), 0.0f);
  std::vector<std::size_t> window_ends;
  window_ends.reserve(1 << 14);
  const alloc::PeakScope heap;
  hazard::Hro hro(hazard::HroConfig{.capacity_bytes = ctx.workload->capacity_bytes(),
                                    .window_unique_bytes_mult =
                                        lhr_config.window_unique_bytes_mult,
                                    .size_aware = true,
                                    .age_decay_hazard = lhr_config.hro_age_decay});
  const auto t = Clock::now();
  for (std::size_t i = 0; i < tr.size(); ++i) {
    labels[i] = hro.classify(tr[i]).hit ? 1.0f : 0.0f;
    if (hro.window_just_closed()) window_ends.push_back(i + 1);
  }
  v["hazard.classify_ns"] = seconds_since(t) / static_cast<double>(tr.size()) * 1e9;
  v["hazard.counted_kb"] = heap.peak_kib();
  v["hazard.modeled_kb"] = static_cast<double>(hro.memory_bytes()) / 1024.0;
  return window_ends;
}

void ml_layers(const trace::Trace& tr, const std::vector<float>& labels,
               const std::vector<std::size_t>& window_ends, Round& v, Checks& checks) {
  const core::LhrConfig cfg;
  {
    ml::FeatureExtractor extractor(cfg.features);
    std::vector<float> row(extractor.dim());
    const auto t = Clock::now();
    for (const auto& r : tr) {
      extractor.extract(r, row);
      extractor.record(r);
    }
    v["ml.extract_ns"] = seconds_since(t) / static_cast<double>(tr.size()) * 1e9;
  }

  // Rebuild the features untimed, batching each window's first
  // max_train_samples rows with their HRO labels, as LHR trains on them.
  ml::FeatureExtractor extractor(cfg.features);
  ml::ZipfDetector detector(ml::ZipfDetectorConfig{.epsilon = cfg.detection_epsilon});
  ml::Dataset batch;
  batch.n_features = extractor.dim();
  std::vector<float> targets;
  std::vector<float> row(extractor.dim());
  double zipf_s = 0.0, fit_s = 0.0, compile_s = 0.0, row_s = 0.0, block_s = 0.0;
  std::size_t fits = 0, fit_rows = 0;
  std::size_t begin = 0;
  for (const std::size_t end : window_ends) {
    for (std::size_t i = begin; i < end; ++i) {
      extractor.extract(tr[i], row);
      extractor.record(tr[i]);
      detector.record(tr[i].key);
      if (targets.size() < cfg.max_train_samples) {
        batch.values.insert(batch.values.end(), row.begin(), row.end());
        targets.push_back(labels[i]);
      }
    }
    begin = end;
    auto t = Clock::now();
    (void)detector.close_window();
    zipf_s += seconds_since(t);
    if (targets.size() < cfg.min_train_samples || fits == kMaxFits) continue;

    ml::Gbdt model;
    t = Clock::now();
    model.fit(batch, targets, cfg.gbdt);
    fit_s += seconds_since(t);
    ++fits;
    fit_rows += targets.size();

    std::size_t compiled_trees = 0;
    t = Clock::now();
    for (std::size_t k = 0; k < kSmallRepeats; ++k) {
      compiled_trees += ml::FlatForest(model).tree_count();
    }
    compile_s += seconds_since(t) / kSmallRepeats;
    checks.expect(compiled_trees == kSmallRepeats * model.tree_count(),
                  "FlatForest did not compile every tree of the model");

    const ml::FlatForest forest(model);
    const std::size_t n = batch.n_rows();
    std::vector<double> by_row(n), by_block(n), want(n);
    t = Clock::now();
    for (std::size_t i = 0; i < n; ++i) by_row[i] = forest.score_row(batch.row(i));
    row_s += seconds_since(t);
    t = Clock::now();
    forest.score_block(batch, by_block);
    block_s += seconds_since(t);
    for (std::size_t i = 0; i < n; ++i) want[i] = model.predict(batch.row(i));
    check_bitwise_equal(checks, "FlatForest::score_row and Gbdt::predict scores", by_row, want);
    check_bitwise_equal(checks, "FlatForest::score_block and Gbdt::predict scores", by_block,
                        want);
    batch.values.clear();
    targets.clear();
  }
  if (window_ends.empty() || fits == 0) {
    throw std::runtime_error("the trace closed no training window; ml layer not measured");
  }
  const auto per_fit = static_cast<double>(fits);
  v["ml.zipf_close_us"] = zipf_s / static_cast<double>(window_ends.size()) * 1e6;
  v["ml.fit_ms"] = fit_s / per_fit * 1e3;
  v["ml.fit_rows_per_s"] = static_cast<double>(fit_rows) / fit_s;
  v["ml.compile_us"] = compile_s / per_fit * 1e6;
  v["ml.score_row_ns"] = row_s / static_cast<double>(fit_rows) * 1e9;
  v["ml.score_block_ns"] = block_s / static_cast<double>(fit_rows) * 1e9;
}

void core_layer(const RunContext& ctx, const trace::Trace& tr, const TraceFacts& facts,
                Round& v, Checks& checks) {
  AccessTimes times(tr.size());
  const alloc::PeakScope heap;
  core::LhrCache cache(ctx.workload->capacity_bytes(), core::LhrConfig{});
  sim::SimOptions options;
  options.observer = &times;
  const sim::SimMetrics m = sim::simulate(cache, tr, options);
  v["core.counted_kb"] = heap.peak_kib();
  v["core.modeled_kb"] = static_cast<double>(m.peak_metadata_bytes) / 1024.0;
  v["core.access_p50_ns"] = percentile(times.seconds, 0.50) * 1e9;
  v["core.access_p99_ns"] = percentile(times.seconds, 0.99) * 1e9;
  v["core.stall_max_ms"] = m.max_access_seconds * 1e3;
  v["core.train_s"] = cache.training_seconds();
  v["core.trainings"] = static_cast<double>(cache.trainings());
  check_hit_bound(checks, "LHR", m.requests, m.hits, facts);
  check_sim_bytes(checks, "LHR", m.bytes_requested, m.bytes_hit, m.wan_traffic_bytes(), facts);
}

template <typename Call>
double mean_call_us(Call&& call) {
  const auto t = Clock::now();
  for (std::size_t k = 0; k < kSmallRepeats; ++k) call();
  return seconds_since(t) / kSmallRepeats * 1e6;
}

void server_layers(const RunContext& ctx, const std::string& path, const TraceFacts& facts,
                   Round& v, Checks& checks) {
  const trace::MappedTrace mapped(path);
  const double n = static_cast<double>(mapped.size());

  auto srv = core::make_job_server(serve_job(*ctx.workload, path, 1));
  auto t = Clock::now();
  const server::ServerReport report =
      srv->replay_concurrent(mapped, server::ReplayMode::kNormal, 1);
  v["server.serve_ns"] = seconds_since(t) / n * 1e9;
  v["server.origin_fetches"] = static_cast<double>(report.origin_fetches);
  v["server.latency_p99_ms"] = report.p99_latency_ms;
  check_hit_bound(checks, "server", report.requests, report.hits, facts);
  check_server_bytes(checks, "server", report.requests, report.bytes_served, report.wan_bytes,
                     report.failed_requests, facts);

  // Both slices of a 2x1 fan-out, run here one after the other on one fresh
  // server (their shards are disjoint).
  const core::ProcReplayJob fan_out = serve_job(*ctx.workload, path, 2);
  const auto fresh = core::make_job_server(fan_out);
  server::ProcReplayOptions opts;
  opts.procs = 2;
  opts.threads = 1;
  opts.mode = server::ReplayMode::kNormal;
  std::vector<server::PartialReport> partials;
  double slowest = 0.0;
  for (std::size_t p = 0; p < 2; ++p) {
    t = Clock::now();
    partials.push_back(server::replay_worker_slice(*fresh, mapped, p, opts));
    slowest = std::max(slowest, seconds_since(t));
  }
  v["server.slice_s"] = slowest;

  std::string encoded;
  v["server.encode_us"] = mean_call_us([&] { encoded = server::encode_partial_report(partials[0]); });
  server::PartialReport decoded;
  v["server.decode_us"] = mean_call_us([&] { decoded = server::decode_partial_report(encoded); });
  check_identical(checks, "partial report and its decode-encode round trip", encoded,
                  server::encode_partial_report(decoded));
  double merge_s = 0.0;
  server::PartialReport merged;
  for (std::size_t k = 0; k < kSmallRepeats; ++k) {
    merged = partials[0];
    t = Clock::now();
    merged.merge(partials[1]);
    merge_s += seconds_since(t);
  }
  v["server.merge_us"] = merge_s / kSmallRepeats * 1e6;
  const server::ServerReport assembled = fresh->assemble_report(
      mapped, server::ReplayMode::kNormal, merged.acc, merged.control_plane, 2, slowest,
      merged.lock_contentions);
  check_identical(checks, "canonical summaries of the merged slices and the in-process replay",
                  assembled.canonical_summary(), report.canonical_summary());
  // ServerReport carries no median latency; the merged accumulator's
  // histogram is the one the report's p90/p99 are read from.
  v["server.latency_p50_ms"] = merged.acc.latency.quantile(0.50) * 1e3;
  checks.expect(merged.acc.latency.quantile(0.99) * 1e3 == report.p99_latency_ms,
                "merged slices' latency p99 differs from the in-process replay's");

  t = Clock::now();
  const server::ServerReport fanned = core::run_proc_replay(fan_out);
  const double fan_s = seconds_since(t);
  v["server.procs_requests_per_s"] = n / fan_s;
  v["server.fanout_overhead_s"] = fan_s - slowest;
  check_identical(checks, "canonical summaries of the 2-process and in-process replays",
                  fanned.canonical_summary(), report.canonical_summary());
}

/// One round over every layer; returns the requests it replayed.
std::uint64_t layer_round(const RunContext& ctx, Round& v, Checks& checks) {
  const Workload& w = *ctx.workload;
  auto t = Clock::now();
  const trace::Trace tr = gen::make_trace(w.trace_class, w.requests, ctx.seed);
  v["gen.trace_s"] = seconds_since(t);
  const TraceFacts facts = count_trace(tr.requests());
  const ScratchFile file{ctx.work_path("layers-" + std::string(w.name))};
  const std::size_t n = tr.size();

  trace_layers(ctx, tr, file.path, v, checks);
  policy_layers(ctx, tr, facts, v, checks);
  std::vector<float> labels;
  const auto window_ends = hazard_layer(ctx, tr, labels, v);
  ml_layers(tr, labels, window_ends, v, checks);
  core_layer(ctx, tr, facts, v, checks);
  server_layers(ctx, file.path, facts, v, checks);
  // Whole-trace replays: policy set, HRO, two feature passes, LHR, and the
  // server's in-process replay, two slices and 2-process fan-out.
  return n * (baseline_policies().size() + 1 + 2 + 1 + 3);
}

}  // namespace

void run_layers(const RunContext& ctx, Result& result, Checks& checks) {
  const auto metrics = layer_metrics();
  std::map<std::string, std::vector<double>> values;
  // Like the untraced passes: another round starts only while it is
  // expected to end within --seconds.
  const auto t0 = Clock::now();
  std::vector<double> round_s;
  do {
    const auto t = Clock::now();
    Round round;
    result.attempted += layer_round(ctx, round, checks);
    round_s.push_back(seconds_since(t));
    for (const auto& [name, value] : round) values[name].push_back(value);
    std::printf("round %zu: %.3f s\n", round_s.size(), round_s.back());
    std::fflush(stdout);
  } while (seconds_since(t0) + median(round_s) <= ctx.seconds);
  const std::size_t rounds = round_s.size();

  for (const auto& m : metrics) {
    const auto it = values.find(m.name);
    if (it == values.end() || it->second.size() != rounds) {
      throw std::logic_error("layer metric " + m.name + " was not measured every round");
    }
    result.add(m.name, median(it->second), m.unit);
  }
  if (values.size() != metrics.size()) {
    throw std::logic_error("a layer reported a metric missing from the metric table");
  }
}

}  // namespace perfbench
