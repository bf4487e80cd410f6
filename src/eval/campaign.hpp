// Campaign runner: one metAScritic run over a sequence of metros.  The
// metros run one after another through the §3.5 pipeline, and each metro's
// strategy counts update the Appx. D.6 priors the next metro reads, so
// metro order is part of the result.
//
// The runner also owns the run's crash safety (DESIGN.md §12): it persists
// a resumable snapshot at every rank boundary and metro completion, resumes
// from the newest good snapshot with exports byte-identical to an
// uninterrupted run, and stops cooperatively when its RunControl asks,
// exporting best-so-far results.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "eval/world.hpp"
#include "util/cancel.hpp"

namespace metas::eval {

/// One campaign's settings; each field is a metascritic_cli flag.
struct CampaignConfig {
  std::uint64_t seed = 42;
  std::string scale = "small";  // "small" or "paper"
  std::string metro;            // empty = the first focus metro
  bool all_metros = false;
  traceroute::FaultProfile faults;  // default: none (inert)
  bool resilience = true;
  std::optional<double> threshold;  // empty = the pipeline's F-max lambda
  std::string out_dir = "metascritic_out";
  std::string checkpoint_path;  // empty = no checkpointing
  std::string resume_path;      // empty = fresh run
  int keep_checkpoints = 3;
};

/// The world a campaign runs in: the scale preset for `seed`, with the
/// campaign's fault profile and resilience setting.
WorldConfig campaign_world_config(const CampaignConfig& cfg);

/// One completed metro's summary numbers, kept as raw values (not table
/// rows) so they serialize into checkpoints and survive a resume.
struct MetroSummary {
  std::string name;
  std::size_t ases = 0;
  int rank = 0;
  std::size_t traces = 0;
  double lambda = 0.0;
  std::size_t links = 0;
  core::DegradationReport degradation;

  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);
};

struct CampaignHooks {
  /// Receives one progress line per step; null runs quietly.
  std::ostream* progress = nullptr;  // lint: allow(view-member) -- caller-owned stream (e.g. std::cout) that outlives the run_campaign call
  /// Called after each checkpoint file lands (and its flight-recorder dump,
  /// when tracing is armed), with the number written so far by this run.
  std::function<void(int written)> after_checkpoint;
};

struct CampaignResult {
  /// Non-empty when the campaign could not start or an export failed.
  std::string error;
  /// Every finished metro, including those restored from a checkpoint.
  std::vector<MetroSummary> completed;
  /// The RunControl stopped the campaign before its last metro finished;
  /// the phases it cut short are counted in the last summary's report.
  bool stopped_early = false;
  int checkpoints_written = 0;
};

/// Runs the campaign in `world`, which must have been built from
/// campaign_world_config(cfg), and writes <out_dir>/<metro>_{links,ratings,
/// measurements}.csv for every metro it runs.  With cfg.resume_path set, the
/// completed metros, the priors, the measurement plane and any in-flight
/// pipeline are first restored from that checkpoint; a checkpoint written
/// with a different seed, scale, metro selection, fault profile or
/// resilience setting is rejected.  Once `control` requests a stop, no
/// further checkpoint is written, so the newest one is always a consistent
/// point to resume from.
CampaignResult run_campaign(const CampaignConfig& cfg, World& world,
                            const util::RunControl& control,
                            const CampaignHooks& hooks = {});

}  // namespace metas::eval
