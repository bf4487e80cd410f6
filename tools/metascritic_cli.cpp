// metascritic_cli: run the full pipeline from the command line and export
// the inferred topology as CSV -- the workflow a downstream consumer of the
// real system would script.
//
// Usage:
//   metascritic_cli [--seed N] [--metro NAME|--all-metros] [--scale small|paper]
//                   [--threshold X|auto] [--out DIR] [--quiet]
//                   [--fault-profile none|flaky|storm] [--no-resilience]
//                   [--checkpoint PATH] [--resume PATH] [--deadline-ms N]
//                   [--trace PATH] [--trace-buffer-events N]
//
// The campaign itself -- metro loop, per-metro <out>/<metro>_{links,ratings,
// measurements}.csv exports, checkpoints, resume -- is eval::run_campaign
// (src/eval/campaign.hpp).  This tool parses flags, turns SIGINT/SIGTERM
// into a cooperative stop, and prints the summary table (plus, under a
// fault profile, how the measurement plane degraded).
//
// --telemetry PATH writes a snapshot of the process-wide metrics registry
// (DESIGN.md §8) after the run, in JSON (default) or flat CSV.
//
// Crash safety (DESIGN.md §12): --checkpoint persists a resumable snapshot
// at every rank boundary and metro completion; --resume continues a killed
// or cancelled run, byte-identical to an uninterrupted one.  SIGINT/SIGTERM
// and --deadline-ms stop cooperatively with best-so-far results.
//
// Tracing (DESIGN.md §13): --trace PATH arms the flight recorder and writes
// a Chrome trace-event / Perfetto JSON timeline at the end of the run;
// --trace-buffer-events N (at most 4194304) bounds each thread's ring.
// While tracing is armed every checkpoint also dumps the ring to
// <checkpoint>.trace.json.
//
// Malformed or out-of-range flag values print usage and exit 2; a failed
// run (unknown metro, unusable checkpoint, failed export) exits 1.
#include <charconv>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "eval/campaign.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

// Tripped (flag-only, async-signal-safe) by SIGINT/SIGTERM; polled by every
// pipeline phase.  File-scope is deliberate: signal handlers cannot receive
// context, and tools/ is outside the src/ mutable-static lint scope.
metas::util::CancelToken g_cancel;

extern "C" void cli_signal_handler(int) { g_cancel.cancel(); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = &cli_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct CliOptions {
  metas::eval::CampaignConfig campaign;
  bool quiet = false;
  std::string telemetry_path;  // empty = no snapshot
  metas::util::telemetry::Format telemetry_format =
      metas::util::telemetry::Format::kJson;
  std::string trace_path;  // empty = no tracing
  std::size_t trace_buffer_events =
      metas::util::trace::kDefaultBufferEvents;
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  // Test hook for the crash-injection suite: SIGKILL this process right
  // after the Nth checkpoint file hits disk, so the "crash" lands exactly
  // on a checkpoint boundary.  0 disables.
  int crash_after_checkpoints = 0;
};

void usage() {
  std::cout <<
      "usage: metascritic_cli [--seed N] [--metro NAME | --all-metros]\n"
      "                       [--scale small|paper] [--threshold X|auto]\n"
      "                       [--out DIR] [--quiet]\n"
      "                       [--fault-profile none|flaky|storm] [--no-resilience]\n"
      "                       [--telemetry PATH] [--telemetry-format json|csv]\n"
      "                       [--checkpoint PATH] [--resume PATH]\n"
      "                       [--deadline-ms N] [--keep-checkpoints K]\n"
      "                       [--trace PATH] [--trace-buffer-events N]\n";
}

/// Parses all of `v` as a number in [lo, hi]; false on a missing value,
/// trailing characters or an out-of-range value.
template <typename T>
bool parse_number(const char* v, T lo, T hi, T& out) {
  if (v == nullptr) return false;
  const char* end = v + std::strlen(v);
  T x{};
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end || !(x >= lo && x <= hi)) return false;
  out = x;
  return true;
}

template <typename T>
bool parse_number(const char* v, T lo, T& out) {
  return parse_number(v, lo, std::numeric_limits<T>::max(), out);
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
  metas::eval::CampaignConfig& c = opt.campaign;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    // The flag's value; null when the command line ends first.
    auto value = [&]() -> const char* {
      return k + 1 < argc ? argv[++k] : nullptr;
    };
    auto text = [&](std::string& out) {
      const char* v = value();
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    bool ok = true;
    if (arg == "--seed") {
      ok = parse_number(value(), std::uint64_t{0}, c.seed);
    } else if (arg == "--metro") {
      ok = text(c.metro);
    } else if (arg == "--all-metros") {
      c.all_metros = true;
    } else if (arg == "--scale") {
      ok = text(c.scale) && (c.scale == "small" || c.scale == "paper");
    } else if (arg == "--threshold") {
      std::string t;
      double lambda = 0.0;
      ok = text(t) &&
           (t == "auto" || parse_number(t.c_str(), -1.0, 1.0, lambda));
      c.threshold.reset();
      if (t != "auto") c.threshold = lambda;
    } else if (arg == "--out") {
      ok = text(c.out_dir);
    } else if (arg == "--fault-profile") {
      std::string profile;
      ok = text(profile) &&
           metas::traceroute::parse_fault_profile(profile, c.faults);
    } else if (arg == "--telemetry") {
      ok = text(opt.telemetry_path);
    } else if (arg == "--telemetry-format") {
      std::string fmt;
      ok = text(fmt) && (fmt == "json" || fmt == "csv");
      using metas::util::telemetry::Format;
      opt.telemetry_format = fmt == "csv" ? Format::kCsv : Format::kJson;
    } else if (arg == "--checkpoint") {
      ok = text(c.checkpoint_path);
    } else if (arg == "--resume") {
      ok = text(c.resume_path);
    } else if (arg == "--trace") {
      ok = text(opt.trace_path);
    } else if (arg == "--trace-buffer-events") {
      ok = parse_number(value(), std::size_t{1},
                        metas::util::trace::kMaxBufferEvents,
                        opt.trace_buffer_events);
    } else if (arg == "--deadline-ms") {
      ok = parse_number(value(), std::uint64_t{0}, opt.deadline_ms);
    } else if (arg == "--keep-checkpoints") {
      ok = parse_number(value(), 1, c.keep_checkpoints);
    } else if (arg == "--crash-after-checkpoints") {
      ok = parse_number(value(), 0, opt.crash_after_checkpoints);
    } else if (arg == "--no-resilience") {
      c.resilience = false;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  // --resume implies continued checkpointing to the same file.
  if (!c.resume_path.empty() && c.checkpoint_path.empty())
    c.checkpoint_path = c.resume_path;
  return true;
}

void print_tables(const CliOptions& opt,
                  const std::vector<metas::eval::MetroSummary>& completed) {
  using metas::util::Table;
  Table summary({"metro", "ASes", "rank", "traces", "lambda", "links out"});
  Table degraded({"metro", "row fill", "faulted", "retries", "requeues",
                  "quarantined", "dead VPs"});
  for (const metas::eval::MetroSummary& m : completed) {
    summary.add_row({m.name, Table::fmt(m.ases), Table::fmt(m.rank),
                     Table::fmt(m.traces), Table::fmt(m.lambda, 2),
                     Table::fmt(m.links)});
    const metas::core::DegradationReport& d = m.degradation;
    degraded.add_row({m.name, Table::fmt(d.fill_fraction, 3),
                      Table::fmt(d.probes_faulted), Table::fmt(d.retries),
                      Table::fmt(d.requeues), Table::fmt(d.quarantined_vps),
                      Table::fmt(d.dead_vps)});
  }
  summary.print(std::cout);
  if (opt.campaign.faults.enabled()) {
    std::cout << "measurement-plane degradation (resilience "
              << (opt.campaign.resilience ? "on" : "off") << "):\n";
    degraded.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metas;
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  const eval::CampaignConfig& cfg = opt.campaign;
  install_signal_handlers();
  if (!opt.trace_path.empty())
    util::trace::Recorder::instance().start(opt.trace_buffer_events);

  util::RunControl control;
  control.token = &g_cancel;
  if (opt.deadline_ms > 0)
    control.budget = util::DeadlineBudget::after_ms(opt.deadline_ms);

  if (!opt.quiet) std::cout << "building world (seed " << cfg.seed << ")...\n";
  eval::World world = eval::build_world(eval::campaign_world_config(cfg));

  eval::CampaignHooks hooks;
  if (!opt.quiet) hooks.progress = &std::cout;
  hooks.after_checkpoint = [&opt](int written) {
    // Crash-injection hook: die hard (no atexit, no flush) exactly at a
    // checkpoint boundary, like an OOM kill would.
    if (opt.crash_after_checkpoints > 0 &&
        written >= opt.crash_after_checkpoints)
      ::raise(SIGKILL);
  };
  const eval::CampaignResult run =
      eval::run_campaign(cfg, world, control, hooks);
  if (!run.error.empty()) {
    std::cerr << "error: " << run.error << '\n';
    return 1;
  }
  print_tables(opt, run.completed);

  if (run.stopped_early) {
    const bool by_deadline = control.budget.expired();
    const std::size_t truncated =
        run.completed.empty()
            ? 0
            : run.completed.back().degradation.phases_truncated;
    util::Table crash({"cause", "phases truncated", "budget used (ms)",
                       "checkpoints", "metros done"});
    crash.add_row({g_cancel.cancelled() ? "signal" : "deadline",
                   util::Table::fmt(truncated),
                   util::Table::fmt(control.budget.consumed_ms()),
                   util::Table::fmt(run.checkpoints_written),
                   util::Table::fmt(run.completed.size())});
    std::cout << "run stopped early ("
              << (by_deadline ? "deadline expired" : "cancelled by signal")
              << "); best-so-far results exported:\n";
    crash.print(std::cout);
    if (!cfg.checkpoint_path.empty())
      std::cout << "resume with: --resume " << cfg.checkpoint_path << '\n';
  }

  if (!opt.quiet)
    std::cout << "CSV outputs written under " << cfg.out_dir << "/\n";
  if (!opt.telemetry_path.empty()) {
    if (!util::telemetry::write_snapshot(opt.telemetry_path,
                                         opt.telemetry_format)) {
      std::cerr << "error: cannot write telemetry snapshot to '"
                << opt.telemetry_path << "'\n";
      return 1;
    }
    if (!opt.quiet) {
      std::cout << "telemetry snapshot written to " << opt.telemetry_path;
      if (!util::telemetry::compiled())
        std::cout << " (instrumentation compiled out: snapshot is empty)";
      std::cout << "\n";
    }
  }
  if (!opt.trace_path.empty()) {
    util::trace::Recorder& rec = util::trace::Recorder::instance();
    rec.stop();  // quiescent: the run is over, drain is race-free
    if (!rec.write_file(opt.trace_path)) {
      std::cerr << "error: cannot write trace to '" << opt.trace_path << "'\n";
      return 1;
    }
    if (!opt.quiet) {
      std::cout << "trace written to " << opt.trace_path << " ("
                << rec.event_count() << " events";
      if (rec.dropped_events() > 0)
        std::cout << ", " << rec.dropped_events() << " dropped";
      std::cout << "); load in chrome://tracing or ui.perfetto.dev\n";
      if (!util::telemetry::compiled())
        std::cout << "  (instrumentation compiled out: trace is empty)\n";
    }
  }
  return 0;
}
