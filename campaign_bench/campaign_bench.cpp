// campaign_bench: the closed-loop campaign benchmark runner.
//
// One process, one thread, one campaign at a time.  A campaign builds a world
// and then runs every focus metro, in focus order, against the world's single
// shared MeasurementSystem (so metro order is part of the input).  Each metro's
// links / ratings / measurements CSVs are rendered to memory as part of the
// campaign, exactly as `metascritic_cli` renders them before publishing.
//
// Usage:
//   campaign_bench --workload canonical-paper|flaky-small|posthoc-random
//                  --out DIR [--seconds T] [--trace 0|1] [--seed N]
//                  [--commit TEXT]
//
// --trace 0 (untraced) repeats campaigns, at least two, while the next one
// still fits in T seconds, builds extra worlds until there are nine set-up
// samples, and reports median-based end-to-end metrics (see sum_of_medians).
// --trace 1 alternates an untraced campaign with a traced one, in which the
// world is built step by step through the public calls eval::build_world
// makes and every layer call is wrapped in a MAC_SPAN; the per-layer metrics
// come from the registry's span tree and counters over the traced campaign,
// the Chrome trace of the last traced campaign is written to DIR/trace.json,
// and a probe phase times single build_matrix calls and ALS fits after
// everything else is recorded.
//
// Output checks: every campaign's exports and deterministic numbers must
// equal the first campaign's, byte for byte; a traced campaign must also
// reproduce the untraced counters.  The first campaign's exports are written
// to DIR/exports for the comparison against metascritic_cli (done by run.py),
// and the full report to DIR/report.json.  Exit status: 0 when every check
// passed, 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/export.hpp"
#include "eval/metrics.hpp"
#include "eval/world.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

#ifndef CAMPAIGN_BENCH_BUILD_TYPE
#define CAMPAIGN_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace metas;
using Clock = std::chrono::steady_clock;

// The canonical run of the roadmap is seed 42 (`metascritic_cli --seed 42`).
constexpr std::uint64_t kCanonicalWorldSeed = 42;
// Set-up is timed at least this many times per process; setup_s is the median.
constexpr std::size_t kSetupSamples = 9;
// posthoc-random: random-policy traceroutes per metro, and the row fill target
// the random batches aim at (the Table-2 baseline path of bench/tbl02).
constexpr std::size_t kPosthocBudget = 1500;
constexpr int kPosthocFillTarget = 8;
// Flight-recorder ring per thread; a traced campaign emits ~11k events.
constexpr std::size_t kTraceBufferEvents = std::size_t{1} << 18;

enum class Workload { kCanonicalPaper, kFlakySmall, kPosthocRandom };

struct Options {
  Workload workload = Workload::kCanonicalPaper;
  std::string workload_name;
  std::uint64_t seed = kCanonicalWorldSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string commit = "unknown";
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

std::string load_average() {
  double la[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(la, 3) != 3) return "unknown";
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << la[0] << ' ' << la[1] << ' '
     << la[2];
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------- registry

using Counters = std::map<std::string, std::uint64_t>;

/// Every registry counter, read through the registry's own CSV export.
Counters counter_snapshot() {
  std::ostringstream os;
  util::telemetry::Registry::instance().write_csv(os);
  std::istringstream in(os.str());
  Counters out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("counter,", 0) != 0) continue;
    std::vector<std::string> f;
    std::stringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) f.push_back(cell);
    if (f.size() == 4) out[f[1]] = std::stoull(f[3]);
  }
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

/// Span-tree activity between two registry snapshots (node ids are stable,
/// so the later snapshot extends the earlier one).
class SpanDelta {
 public:
  using Snapshot = std::vector<util::telemetry::Registry::SpanSnapshot>;
  SpanDelta(const Snapshot& before, const Snapshot& after) : nodes_(after) {
    for (std::size_t k = 0; k < nodes_.size() && k < before.size(); ++k) {
      nodes_[k].count -= before[k].count;
      nodes_[k].total_ns -= before[k].total_ns;
    }
  }

  /// Total seconds in spans called `name`, not counting a span nested in a
  /// span of the same name twice.
  double total_s(std::string_view name) const {
    std::uint64_t ns = 0;
    for (std::size_t k = 0; k < nodes_.size(); ++k)
      if (nodes_[k].name == name && !has_ancestor(k, name))
        ns += nodes_[k].total_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  std::uint64_t calls(std::string_view name) const {
    std::uint64_t c = 0;
    for (const auto& n : nodes_)
      if (n.name == name) c += n.count;
    return c;
  }

  double mean_ms(std::string_view name) const {
    const std::uint64_t c = calls(name);
    return c == 0 ? 0.0 : total_s(name) * 1e3 / static_cast<double>(c);
  }

  /// Self time: total minus the time covered by direct child spans.
  double self_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
      if (nodes_[k].name != name) continue;
      ns += static_cast<std::int64_t>(nodes_[k].total_ns);
      for (const auto& c : nodes_)
        if (c.parent == static_cast<int>(k))
          ns -= static_cast<std::int64_t>(c.total_ns);
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Seconds covered by root spans whose name starts with `prefix`.
  double root_s(std::string_view prefix) const {
    std::uint64_t ns = 0;
    for (const auto& n : nodes_)
      if (n.parent < 0 && n.name.rfind(prefix, 0) == 0) ns += n.total_ns;
    return static_cast<double>(ns) * 1e-9;
  }

 private:
  bool has_ancestor(std::size_t k, std::string_view name) const {
    for (int p = nodes_[k].parent; p >= 0;
         p = nodes_[static_cast<std::size_t>(p)].parent)
      if (nodes_[static_cast<std::size_t>(p)].name == name) return true;
    return false;
  }

  Snapshot nodes_;
};

/// Runs `f`, inside a MAC_SPAN called `name` when the campaign is traced.
template <typename F>
decltype(auto) in_span(bool traced, std::string_view name, F&& f) {
  if (!traced) return f();
  MAC_SPAN(name);
  return f();
}

// ---------------------------------------------------------------- workloads

eval::WorldConfig world_config(const Options& opt) {
  if (opt.workload == Workload::kFlakySmall) {
    eval::WorldConfig wc = eval::small_world_config(kCanonicalWorldSeed);
    traceroute::parse_fault_profile("flaky", wc.faults);
    return wc;
  }
  return eval::paper_world_config(kCanonicalWorldSeed);
}

/// eval::build_world, one public call at a time, with one span per set-up
/// layer.  Must stay call-for-call identical to eval::build_world: the traced
/// campaign's exports are checked against the untraced one's.
eval::World build_world_in_spans(const eval::WorldConfig& cfg) {
  eval::World w;
  {
    MAC_SPAN("bench.setup.topology");
    w.net = topology::generate_internet(cfg.gen);
    w.focus_metros = eval::focus_metro_ids(cfg.gen);
  }
  util::Rng rng(cfg.seed);
  {
    MAC_SPAN("bench.setup.measurement_plane");
    w.vps = traceroute::place_vantage_points(w.net, rng, cfg.vps);
    w.targets = traceroute::enumerate_targets(w.net, rng);
    w.engine = std::make_unique<traceroute::TracerouteEngine>(w.net, cfg.trace);
    if (cfg.faults.enabled()) {
      w.faults = std::make_unique<traceroute::FaultInjector>(cfg.faults);
      w.engine->set_fault_injector(w.faults.get());
    }
    w.ms = std::make_unique<core::MeasurementSystem>(w.net, *w.engine, w.vps,
                                                     w.targets, cfg.seed + 1);
    w.ms->set_resilience(cfg.resilience);
  }
  {
    MAC_SPAN("bench.setup.public_archives");
    w.ms->run_public_archives(cfg.public_archive_traces);
  }
  {
    MAC_SPAN("bench.setup.public_view");
    w.collectors = bgp::place_collectors(w.net, rng);
    if (cfg.compute_public_view) {
      bgp::AsGraph g = bgp::AsGraph::from_internet(w.net);
      w.public_view = bgp::compute_public_view(g, w.collectors);
    }
  }
  return w;
}

/// Mean over rows of min(filled / target, 1): DegradationReport's
/// fill_fraction, for a matrix no fill_rows_to campaign has summarized.
double row_fill(const core::EstimatedMatrix& e, int target) {
  if (e.size() == 0) return 0.0;
  double fill = 0.0;
  for (std::size_t i = 0; i < e.size(); ++i)
    fill += std::min(1.0, static_cast<double>(e.row_filled(i)) / target);
  return fill / static_cast<double>(e.size());
}

/// The Table-2 baseline path: spend the budget with random selection by
/// looping build_matrix / run_batch, estimate the rank post hoc on the static
/// matrix, fit at that rank and tune the threshold.
core::PipelineResult run_posthoc(const core::MetroContext& ctx,
                                 core::MeasurementSystem& ms,
                                 std::uint64_t sched_seed,
                                 std::uint64_t rank_seed, bool traced) {
  core::FeatureMatrix feats = core::encode_features(ctx);
  core::ProbabilityMatrix pm(ctx, ms, nullptr);
  core::SchedulerConfig sc;
  sc.policy = core::SelectionPolicy::kRandom;
  sc.seed = sched_seed;
  core::MeasurementScheduler sched(ctx, ms, pm, sc);
  auto build = [&] {
    return in_span(traced, "bench.build_matrix",
                   [&] { return ms.build_matrix(ctx); });
  };

  core::PipelineResult res;
  while (res.targeted_traceroutes < kPosthocBudget) {
    core::EstimatedMatrix e = build();
    core::BatchResult got = in_span(traced, "bench.run_batch", [&] {
      return sched.run_batch(e, kPosthocFillTarget);
    });
    if (got.selected == 0) break;
    res.targeted_traceroutes += got.launched;
  }
  res.estimated = build();

  core::RankEstimatorConfig rc;
  rc.seed = rank_seed;
  core::RankEstimator est(ctx, feats, rc);
  res.rank_detail = in_span(traced, "bench.run_static",
                            [&] { return est.run_static(res.estimated); });
  res.estimated_rank = res.rank_detail.best_rank;

  core::AlsConfig ac;
  ac.rank = res.estimated_rank;
  core::AlsCompleter completer(ctx.size(), feats, ac);
  const std::vector<core::RatingEntry> entries = core::rating_entries(res.estimated);
  if (entries.empty()) throw std::runtime_error("no rating entries after the budget");
  in_span(traced, "bench.als_fit", [&] { completer.fit(entries); });
  res.threshold = in_span(traced, "bench.tune_threshold", [&] {
    return core::tune_threshold(completer, entries);
  });
  res.ratings = completer.completed();
  res.measurement_log = sched.history();
  res.degradation = sched.degradation();
  res.degradation.fill_fraction = row_fill(res.estimated, kPosthocFillTarget);
  return res;
}

// ---------------------------------------------------------------- campaign

constexpr std::array<const char*, 3> kExportKinds = {"links", "ratings",
                                                     "measurements"};

/// What one metro run leaves behind once its world is gone.
struct MetroRun {
  std::string name;
  std::size_t ases = 0;
  int rank = 0;
  std::size_t traceroutes = 0;
  double pipeline_s = 0.0;
  double loop_s = 0.0;      // the metro's share of the campaign: context,
  double loop_cpu_s = 0.0;  // pipeline and exports (wall and CPU seconds)
  double auprc = 0.0;
  double f_score = 0.0;
  double row_fill = 0.0;
  std::array<std::string, 3> csv;  // rendered exports, kExportKinds order
  std::string failure;             // empty = ok
};

using Layers = std::map<std::string, double>;

/// Every per-layer metric and its unit, in report order.  A metric a workload
/// does not exercise reads 0 (see README.md).
constexpr std::array<std::pair<const char*, const char*>, 26> kLayerUnits = {{
    {"topology.generate_s", "s"},
    {"core.public_archives_s", "s"},
    {"bgp.public_view_s", "s"},
    {"bgp.tables_computed", "count"},
    {"bgp.table_hit_ratio", "ratio"},
    {"measurement.targeted_runs", "count"},
    {"measurement.failovers", "count"},
    {"traceroute.probes_faulted", "count"},
    {"measurement.informative_ratio", "ratio"},
    {"core.pipeline_s", "s"},
    {"core.build_matrix_ms", "ms"},
    {"core.fill_rows_to_s", "s"},
    {"core.run_batch_ms", "ms"},
    {"scheduler.batches_run", "count"},
    {"scheduler.picks_selected", "count"},
    {"scheduler.requeues", "count"},
    {"scheduler.backoff_waits", "count"},
    {"scheduler.launch_ratio", "ratio"},
    {"core.als_fit_s", "s"},
    {"core.run_static_s", "s"},
    {"core.als_fit_ms", "ms"},
    {"als.rows_solved", "count"},
    {"als.iterations_run", "count"},
    {"eval.export_ms", "ms"},
    {"trace.span_coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
}};

struct Campaign {
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  double campaign_s = 0.0;
  double cpu_s = 0.0;
  std::vector<MetroRun> metros;
  Counters counters;  // registry deltas over set-up and campaign
  Layers layers;      // traced only: per-layer metrics of this campaign

  std::size_t traceroutes() const {
    std::size_t t = 0;
    for (const MetroRun& m : metros) t += m.traceroutes;
    return t;
  }
  double mean(double MetroRun::*field) const {
    if (metros.empty()) return 0.0;
    double s = 0.0;
    for (const MetroRun& m : metros) s += m.*field;
    return s / static_cast<double>(metros.size());
  }
};

/// Median-based estimate of a campaign-level time over several campaigns of
/// identical work: the per-campaign part (`whole`, e.g. set-up CPU) and each
/// metro's share (`share`) are taken as medians across campaigns and summed.
/// With three or more campaigns, short interference on a shared host then
/// spoils one metro sample instead of a whole campaign sample; with two, it
/// is the mean of the two campaigns.
double sum_of_medians(const std::vector<Campaign>& cs, double Campaign::*whole,
                      double MetroRun::*share) {
  double total = 0.0;
  if (whole != nullptr) {
    std::vector<double> v;
    for (const Campaign& c : cs) v.push_back(c.*whole);
    total += median(v);
  }
  for (std::size_t m = 0; !cs.empty() && m < cs.front().metros.size(); ++m) {
    std::vector<double> v;
    for (const Campaign& c : cs)
      if (m < c.metros.size()) v.push_back(c.metros[m].*share);
    total += median(v);
  }
  return total;
}

eval::World make_world(const eval::WorldConfig& cfg, bool traced) {
  if (traced) return build_world_in_spans(cfg);
  return eval::build_world(cfg);
}

/// Per-call timings of the evidence and ALS layers on the campaign's final
/// state, taken after every reported number is recorded: the const
/// build_matrix of each metro, and a fresh fit on each metro's final E_m at
/// its estimated rank.
void probe_layers(const eval::World& world,
                  const std::vector<std::unique_ptr<core::MetroContext>>& ctxs,
                  const std::vector<core::PipelineResult>& results,
                  Layers& layers) {
  std::vector<double> build_ms, fit_ms;
  for (std::size_t k = 0; k < ctxs.size(); ++k) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const core::EstimatedMatrix e = world.ms->build_matrix(*ctxs[k]);
      build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    const std::vector<core::RatingEntry> entries =
        core::rating_entries(results[k].estimated);
    if (entries.empty()) continue;
    core::FeatureMatrix feats = core::encode_features(*ctxs[k]);
    core::AlsConfig ac;
    ac.rank = results[k].estimated_rank;
    core::AlsCompleter completer(ctxs[k]->size(), feats, ac);
    const auto t0 = Clock::now();
    completer.fit(entries);
    fit_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  layers["core.build_matrix_ms"] = median(build_ms);
  layers["core.als_fit_ms"] = median(fit_ms);
}

void compute_layers(const Options& opt, const SpanDelta& s, const Counters& k,
                    double wall_s, Layers& out) {
  auto ctr = [&](const char* name) {
    auto it = k.find(name);
    return it == k.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const bool posthoc = opt.workload == Workload::kPosthocRandom;
  out["topology.generate_s"] = s.total_s("bench.setup.topology");
  out["core.public_archives_s"] = s.total_s("bench.setup.public_archives");
  out["bgp.public_view_s"] = s.total_s("bench.setup.public_view");
  out["measurement.targeted_runs"] = ctr("measurement.targeted_runs");
  out["measurement.failovers"] = ctr("measurement.failovers");
  out["traceroute.probes_faulted"] = ctr("traceroute.probes_faulted");
  out["measurement.informative_ratio"] =
      ratio(ctr("measurement.informative_results"), ctr("measurement.targeted_runs"));
  out["bgp.tables_computed"] = ctr("bgp.tables_computed");
  out["bgp.table_hit_ratio"] =
      ratio(ctr("bgp.table_cache_hits"), ctr("bgp.paths_resolved"));
  out["core.pipeline_s"] = s.total_s("bench.metro");
  out["core.fill_rows_to_s"] = s.self_s("scheduler.fill_rows_to");
  out["core.run_batch_ms"] = s.mean_ms("bench.run_batch");
  out["scheduler.batches_run"] = ctr("scheduler.batches_run");
  out["scheduler.picks_selected"] = ctr("scheduler.picks_selected");
  out["scheduler.requeues"] = ctr("scheduler.requeues");
  out["scheduler.backoff_waits"] = ctr("scheduler.backoff_waits");
  out["scheduler.launch_ratio"] =
      ratio(ctr("scheduler.probes_launched"), ctr("scheduler.picks_selected"));
  out["core.als_fit_s"] = s.total_s("als.fit");
  out["core.run_static_s"] = s.total_s("bench.run_static");
  out["als.rows_solved"] = ctr("als.rows_solved");
  out["als.iterations_run"] = ctr("als.iterations_run");
  out["eval.export_ms"] = s.mean_ms("bench.export");
  out["trace.span_coverage"] = ratio(s.root_s("bench."), wall_s);
  if (posthoc) {
    out["core.build_matrix_ms"] = s.mean_ms("bench.build_matrix");
    out["core.als_fit_ms"] = s.mean_ms("bench.als_fit");
  }
}

/// One campaign: set-up, then every focus metro with its exports rendered.
/// Truth scoring, the counter snapshot and (traced) the probe phase run after
/// the campaign clock stops.
Campaign run_campaign(const Options& opt, bool traced) {
  Campaign c;
  const eval::WorldConfig cfg = world_config(opt);
  auto& registry = util::telemetry::Registry::instance();
  auto& recorder = util::trace::Recorder::instance();
  const Counters counters_before = counter_snapshot();
  SpanDelta::Snapshot spans_before;
  if (traced) {
    spans_before = registry.spans();
    recorder.start(kTraceBufferEvents);
  }

  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  eval::World world = make_world(cfg, traced);
  const auto t1 = Clock::now();
  c.setup_cpu_s = cpu_seconds() - cpu0;

  std::vector<std::unique_ptr<core::MetroContext>> ctxs;
  std::vector<core::PipelineResult> results;
  core::StrategyPriors priors;
  for (topology::MetroId metro : world.focus_metros) {
    MetroRun& run = c.metros.emplace_back();
    run.name = world.net.metros[static_cast<std::size_t>(metro)].name;
    core::PipelineResult& result = results.emplace_back();
    const auto l0 = Clock::now();
    const double lcpu0 = cpu_seconds();
    try {
      in_span(traced, "bench.metro", [&] {
        const auto m0 = Clock::now();
        ctxs.push_back(std::make_unique<core::MetroContext>(world.net, metro));
        // Pipeline seeds exactly as metascritic_cli derives them.
        const std::uint64_t base =
            kCanonicalWorldSeed + static_cast<std::uint64_t>(metro) * 3;
        if (opt.workload == Workload::kPosthocRandom) {
          result = run_posthoc(*ctxs.back(), *world.ms, base + 1, base + 2, traced);
        } else {
          core::PipelineConfig pc;
          pc.scheduler.seed = base + 1;
          pc.rank.seed = base + 2;
          core::MetascriticPipeline pipeline(*ctxs.back(), *world.ms, &priors, pc);
          result = pipeline.run();
        }
        run.pipeline_s = seconds_between(m0, Clock::now());
      });
      in_span(traced, "bench.export", [&] {
        const core::MetroContext& ctx = *ctxs.back();
        std::ostringstream links, ratings, log;
        eval::export_links_csv(links, ctx, result, result.threshold);
        eval::export_ratings_csv(ratings, ctx, result);
        eval::export_measurement_log_csv(log, ctx, result);
        run.csv = {links.str(), ratings.str(), log.str()};
      });
      if (result.rank_detail.truncated || result.degradation.phases_truncated > 0)
        run.failure = "a pipeline phase was truncated";
    } catch (const std::exception& e) {
      run.failure = std::string("threw: ") + e.what();
    }
    if (ctxs.size() < c.metros.size()) ctxs.push_back(nullptr);
    run.loop_s = seconds_between(l0, Clock::now());
    run.loop_cpu_s = cpu_seconds() - lcpu0;
  }
  const auto t2 = Clock::now();
  c.setup_s = seconds_between(t0, t1);
  c.campaign_s = seconds_between(t1, t2);
  c.cpu_s = cpu_seconds() - cpu0;
  c.counters = counter_delta(counters_before, counter_snapshot());

  in_span(traced, "bench.score", [&] {
    for (std::size_t k = 0; k < c.metros.size(); ++k) {
      MetroRun& run = c.metros[k];
      if (!run.failure.empty() || ctxs[k] == nullptr) continue;
      const core::PipelineResult& r = results[k];
      run.ases = ctxs[k]->size();
      run.rank = r.estimated_rank;
      run.traceroutes = r.targeted_traceroutes;
      run.row_fill = r.degradation.fill_fraction;
      const eval::TruthMetrics m =
          eval::truth_metrics(eval::score_pairs(*ctxs[k], r.ratings), r.threshold);
      run.auprc = m.auprc;
      run.f_score = m.f_score;
    }
  });

  if (traced) {
    const double wall_s = seconds_between(t0, Clock::now());
    recorder.stop();
    compute_layers(opt, SpanDelta(spans_before, registry.spans()), c.counters,
                   wall_s, c.layers);
    if (opt.workload != Workload::kPosthocRandom) {
      bool complete = true;
      for (const auto& ctx : ctxs) complete = complete && ctx != nullptr;
      if (complete) probe_layers(world, ctxs, results, c.layers);
    }
  }
  return c;
}

/// Differences between a campaign and the reference campaign: exports byte
/// for byte, the deterministic numbers exactly, and every registry counter.
/// Marks the differing metro runs failed.
void check_against(const Campaign& ref, Campaign& c) {
  if (c.metros.size() != ref.metros.size()) {
    for (MetroRun& m : c.metros)
      if (m.failure.empty()) m.failure = "metro list differs from the first campaign";
    return;
  }
  const bool counters_differ = c.counters != ref.counters;
  for (std::size_t k = 0; k < c.metros.size(); ++k) {
    const MetroRun& a = ref.metros[k];
    MetroRun& b = c.metros[k];
    if (!b.failure.empty()) continue;
    for (std::size_t e = 0; e < kExportKinds.size(); ++e)
      if (a.csv[e] != b.csv[e])
        b.failure = std::string(kExportKinds[e]) +
                    " export differs from the first campaign";
    if (b.failure.empty() &&
        (a.name != b.name || a.rank != b.rank || a.traceroutes != b.traceroutes ||
         a.auprc != b.auprc || a.f_score != b.f_score || a.row_fill != b.row_fill))
      b.failure = "deterministic metrics differ from the first campaign";
    if (b.failure.empty() && counters_differ)
      b.failure = "registry counters differ from the first campaign";
  }
}

// ---------------------------------------------------------------- report

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) return false;
    const std::string v = argv[++k];
    if (arg == "--workload") {
      opt.workload_name = v;
      if (v == "canonical-paper") opt.workload = Workload::kCanonicalPaper;
      else if (v == "flaky-small") opt.workload = Workload::kFlakySmall;
      else if (v == "posthoc-random") opt.workload = Workload::kPosthocRandom;
      else return false;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (arg == "--out") {
      opt.out_dir = v;
    } else if (arg == "--commit") {
      opt.commit = v;
    } else {
      return false;
    }
  }
  return !opt.workload_name.empty() && !opt.out_dir.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: campaign_bench --workload canonical-paper|flaky-small|"
                 "posthoc-random --out DIR [--seconds T] [--trace 0|1] "
                 "[--seed N] [--commit TEXT]\n";
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string load_start = load_average();
  const auto start = Clock::now();

  // Closed loop: the next campaign starts when the previous one is done, and
  // only while it is still expected to finish within the measured seconds.
  // Untraced runs make at least two campaigns, so that a campaign longer than
  // the measured seconds (flaky-small) still reports the mean of two.
  const std::size_t min_campaigns = opt.trace ? 1 : 2;
  std::vector<Campaign> untraced, traced;
  std::vector<double> setup_samples;
  // Peak RSS of the process once the first campaign is done: later campaigns
  // would add the reference exports kept for comparison.
  double peak_rss = 0.0;
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  auto account = [&](const Campaign& c, const char* kind, std::size_t index) {
    for (const MetroRun& m : c.metros) {
      ++attempted;
      if (!m.failure.empty())
        failures.push_back(std::string(kind) + " campaign " +
                           std::to_string(index + 1) + ", " + m.name + ": " +
                           m.failure);
    }
  };
  for (;;) {
    const auto it0 = Clock::now();
    Campaign c = run_campaign(opt, false);
    if (!untraced.empty()) check_against(untraced.front(), c);
    account(c, "untraced", untraced.size());
    setup_samples.push_back(c.setup_s);
    untraced.push_back(std::move(c));
    if (untraced.size() == 1) peak_rss = peak_rss_mib();
    if (opt.trace) {
      Campaign t = run_campaign(opt, true);
      check_against(untraced.front(), t);
      account(t, "traced", traced.size());
      traced.push_back(std::move(t));
    }
    // Only the reference campaign's exports are compared against later.
    if (untraced.size() > 1)
      for (MetroRun& m : untraced.back().metros) m.csv = {};
    for (Campaign& t : traced)
      for (MetroRun& m : t.metros) m.csv = {};
    const auto now = Clock::now();
    if (untraced.size() >= min_campaigns &&
        seconds_between(start, now) + seconds_between(it0, now) > opt.seconds)
      break;
  }
  if (!opt.trace) {
    const eval::WorldConfig cfg = world_config(opt);
    while (setup_samples.size() < kSetupSamples) {
      const auto t0 = Clock::now();
      eval::World w = eval::build_world(cfg);
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
  }
  const Campaign& ref = untraced.front();

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"campaign_s", sum_of_medians(untraced, nullptr, &MetroRun::loop_s), "s"},
        {"cpu_s",
         sum_of_medians(untraced, &Campaign::setup_cpu_s, &MetroRun::loop_cpu_s),
         "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"traceroutes", static_cast<double>(ref.traceroutes()), "count"},
        {"auprc", ref.mean(&MetroRun::auprc), "ratio"},
        {"f_score", ref.mean(&MetroRun::f_score), "ratio"},
        {"row_fill", ref.mean(&MetroRun::row_fill), "ratio"},
    };
  } else {
    std::map<std::string, std::vector<double>> per;
    for (const Campaign& t : traced)
      for (const auto& [name, v] : t.layers) per[name].push_back(v);
    for (const auto& [name, unit] : kLayerUnits)
      if (std::string_view(name) != "trace.overhead_frac")
        metrics.push_back({name, median(per[name]), unit});
    metrics.push_back({"trace.overhead_frac",
                       sum_of_medians(traced, nullptr, &MetroRun::loop_s) /
                               sum_of_medians(untraced, nullptr, &MetroRun::loop_s) -
                           1.0,
                       "ratio"});
  }
  const std::string load_end = load_average();
  const std::uint64_t dropped = util::trace::Recorder::instance().dropped_events();

  // ---- exports of the reference campaign and the trace, for run.py
  fs::create_directories(fs::path(opt.out_dir) / "exports");
  for (const MetroRun& m : ref.metros)
    for (std::size_t e = 0; e < kExportKinds.size(); ++e)
      std::ofstream(fs::path(opt.out_dir) / "exports" /
                        (m.name + "_" + kExportKinds[e] + ".csv"),
                    std::ios::binary)
          << m.csv[e];
  if (opt.trace &&
      !util::trace::Recorder::instance().write_file(
          (fs::path(opt.out_dir) / "trace.json").string()))
    failures.push_back("cannot write the trace");

  // ---- human-readable report
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "campaign_bench " << opt.workload_name << ": seed " << opt.seed
            << ", world seed " << kCanonicalWorldSeed << ", trace " << opt.trace
            << "\n"
            << "  host: nproc " << nproc << ", cpu '" << cpu_model()
            << "', load " << load_start << " -> " << load_end << "\n"
            << "  build: " << CAMPAIGN_BENCH_BUILD_TYPE << ", telemetry "
            << (util::telemetry::compiled() ? "compiled in" : "compiled out")
            << ", commit " << opt.commit << "\n"
            << "  campaigns: " << untraced.size() << " untraced, "
            << traced.size() << " traced; set-up samples "
            << setup_samples.size();
  if (opt.trace) std::cout << "; trace events dropped " << dropped;
  std::cout << "\n";
  // Per-metro pipeline time: the median over the untraced campaigns.
  auto pipeline_s = [&](std::size_t m) {
    std::vector<double> v;
    for (const Campaign& c : untraced) v.push_back(c.metros[m].pipeline_s);
    return median(v);
  };
  util::Table rows({"metro", "ASes", "rank", "traceroutes", "core.pipeline_s",
                    "auprc"});
  for (std::size_t k = 0; k < ref.metros.size(); ++k) {
    const MetroRun& m = ref.metros[k];
    rows.add_row({m.name, util::Table::fmt(m.ases), util::Table::fmt(m.rank),
                  util::Table::fmt(m.traceroutes),
                  util::Table::fmt(pipeline_s(k), 3), util::Table::fmt(m.auprc, 4)});
  }
  rows.print(std::cout);
  util::Table mt({"metric", "value", "unit"});
  for (const Metric& m : metrics)
    mt.add_row({m.name, util::Table::fmt(m.value, 6), m.unit});
  mt.print(std::cout);
  const double fail_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failures.size()) /
                           static_cast<double>(attempted);
  std::cout << "metro runs: " << attempted << " attempted, " << failures.size()
            << " failed (fail_frac " << fail_frac << ")\n";
  for (const std::string& f : failures) std::cout << "  FAILED " << f << "\n";

  // ---- machine-readable report
  std::ofstream js(fs::path(opt.out_dir) / "report.json");
  js << "{\n  \"header\": {\"workload\": " << json_str(opt.workload_name)
     << ", \"seed\": " << opt.seed << ", \"world_seed\": " << kCanonicalWorldSeed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"nproc\": " << nproc
     << ", \"cpu_model\": " << json_str(cpu_model())
     << ", \"load_start\": " << json_str(load_start)
     << ", \"load_end\": " << json_str(load_end)
     << ", \"build_type\": " << json_str(CAMPAIGN_BENCH_BUILD_TYPE)
     << ", \"telemetry\": " << (util::telemetry::compiled() ? "true" : "false")
     << ", \"commit\": " << json_str(opt.commit)
     << ", \"untraced_campaigns\": " << untraced.size()
     << ", \"traced_campaigns\": " << traced.size()
     << ", \"setup_samples\": " << setup_samples.size()
     << ", \"trace_dropped_events\": " << dropped << "},\n";
  js << "  \"attempted\": " << attempted << ",\n  \"failed\": " << failures.size()
     << ",\n  \"fail_frac\": " << json_num(fail_frac) << ",\n  \"failures\": [";
  for (std::size_t k = 0; k < failures.size(); ++k)
    js << (k ? ", " : "") << json_str(failures[k]);
  js << "],\n  \"metros\": [";
  for (std::size_t k = 0; k < ref.metros.size(); ++k) {
    const MetroRun& m = ref.metros[k];
    js << (k ? ",\n    " : "\n    ") << "{\"metro\": " << json_str(m.name)
       << ", \"ases\": " << m.ases << ", \"rank\": " << m.rank
       << ", \"traceroutes\": " << m.traceroutes
       << ", \"core.pipeline_s\": " << json_num(pipeline_s(k))
       << ", \"auprc\": " << json_num(m.auprc)
       << ", \"f_score\": " << json_num(m.f_score)
       << ", \"row_fill\": " << json_num(m.row_fill)
       << ", \"failure\": " << json_str(m.failure) << "}";
  }
  js << "],\n  \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k)
    js << (k ? ",\n    " : "\n    ") << json_str(metrics[k].name)
       << ": {\"value\": " << json_num(metrics[k].value)
       << ", \"unit\": " << json_str(metrics[k].unit) << "}";
  auto samples = [&](const char* key, const std::vector<double>& v) {
    js << json_str(key) << ": [";
    for (std::size_t k = 0; k < v.size(); ++k) js << (k ? ", " : "") << json_num(v[k]);
    js << "]";
  };
  std::vector<double> campaign_samples, cpu_samples;
  for (const Campaign& c : untraced) {
    campaign_samples.push_back(c.campaign_s);
    cpu_samples.push_back(c.cpu_s);
  }
  js << "},\n  \"samples\": {";
  samples("setup_s", setup_samples);
  js << ", ";
  samples("campaign_s", campaign_samples);
  js << ", ";
  samples("cpu_s", cpu_samples);
  js << "},\n  \"deterministic\": {\"traceroutes\": " << ref.traceroutes()
     << ", \"auprc\": " << json_num(ref.mean(&MetroRun::auprc))
     << ", \"f_score\": " << json_num(ref.mean(&MetroRun::f_score))
     << ", \"row_fill\": " << json_num(ref.mean(&MetroRun::row_fill))
     << ", \"counters\": {";
  std::size_t k = 0;
  for (const auto& [name, v] : ref.counters)
    js << (k++ ? ", " : "") << json_str(name) << ": " << v;
  js << "}}\n}\n";
  js.close();
  if (!js) {
    std::cerr << "campaign_bench: cannot write " << opt.out_dir << "/report.json\n";
    return 1;
  }
  return failures.empty() ? 0 : 1;
}
