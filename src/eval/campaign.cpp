#include "eval/campaign.hpp"

#include <filesystem>
#include <iostream>
#include <sstream>
#include <utility>

#include "eval/export.hpp"
#include "util/checkpoint.hpp"
#include "util/numeric.hpp"
#include "util/trace.hpp"

namespace metas::eval {

namespace ck = util::checkpoint;

namespace {

/// Everything that pins the deterministic trajectory of a run, as one
/// blob.  A resume whose blob differs would silently diverge.
std::string fingerprint(const CampaignConfig& cfg) {
  ck::Encoder enc;
  enc.u64(cfg.seed);
  enc.str(cfg.scale);
  enc.b(cfg.all_metros);
  enc.str(cfg.metro);
  enc.b(cfg.resilience);
  const traceroute::FaultProfile& f = cfg.faults;
  for (double v : {f.outage_start, f.outage_end, f.death, f.loss,
                   f.bucket_capacity, f.bucket_refill, f.incident_start,
                   f.incident_end})
    enc.f64(v);
  enc.u64(f.seed);
  return enc.take();
}

/// Mutable run state that crosses metro boundaries and must survive a
/// crash: the completed-metro summaries, the hierarchical priors, the next
/// metro index and the in-progress pipeline state.  A checkpoint holds it
/// together with the shared measurement plane.
struct RunState {
  std::vector<MetroSummary> completed;
  core::StrategyPriors priors;
  std::size_t next_metro = 0;
  std::string phase_blob;  // in-progress pipeline state; empty = none

  void save(ck::Encoder& enc, const std::string& fp, const World& world) const {
    enc.str(fp);
    enc.vec(completed,
            [](ck::Encoder& e, const MetroSummary& m) { m.save(e); });
    priors.save(enc);
    enc.u64(next_metro);
    world.ms->save(enc);
    world.engine->save(enc);
    enc.b(world.faults != nullptr);
    if (world.faults != nullptr) world.faults->save(enc);
    enc.str(phase_blob);
  }

  /// Returns an error message, or an empty string on success.
  std::string load(ck::Decoder& dec, const std::string& fp, World& world) {
    if (dec.str() != fp)
      return "checkpoint was produced by a run with different "
             "seed/scale/metro/fault/resilience flags";
    completed = dec.vec<MetroSummary>([](ck::Decoder& d) {
      MetroSummary m;
      m.load(d);
      return m;
    });
    priors.load(dec);
    next_metro = dec.u64();
    world.ms->load(dec);
    world.engine->load(dec);
    if (dec.b() != (world.faults != nullptr))
      return "checkpoint fault-injector presence does not match the profile";
    if (world.faults != nullptr) world.faults->load(dec);
    phase_blob = dec.str();
    return {};
  }
};

/// While tracing is armed, parks the flight recorder's last events next to
/// the checkpoint, so a killed or stopped run leaves a timeline of its
/// final moments.
void dump_flight_recording(const std::string& checkpoint_path) {
  const auto& rec = util::trace::Recorder::instance();  // lint: allow(span-direct) -- exports the caller-armed recorder next to a checkpoint; records nothing
  if (rec.enabled()) rec.write_file(checkpoint_path + ".trace.json");
}

/// Resolves the metro selection; returns an error message when the named
/// metro does not exist.
std::string select_metros(const CampaignConfig& cfg, const World& world,
                          std::vector<topology::MetroId>& metros) {
  if (cfg.all_metros) {
    metros = world.focus_metros;
  } else if (cfg.metro.empty()) {
    metros.push_back(world.focus_metros.front());
  } else {
    for (const auto& m : world.net.metros)
      if (m.name == cfg.metro) metros.push_back(m.id);
  }
  if (!metros.empty()) return {};
  std::string msg = "unknown metro '" + cfg.metro + "'. Focus metros:";
  for (auto m : world.focus_metros)
    msg += ' ' + world.net.metros[mac::checked_cast<std::size_t>(m)].name;
  return msg;
}

}  // namespace

WorldConfig campaign_world_config(const CampaignConfig& cfg) {
  WorldConfig wc = cfg.scale == "paper" ? paper_world_config(cfg.seed)
                                        : small_world_config(cfg.seed);
  wc.faults = cfg.faults;
  wc.resilience.enabled = cfg.resilience;
  return wc;
}

void MetroSummary::save(ck::Encoder& enc) const {
  enc.str(name);
  enc.u64(ases);
  enc.i32(rank);
  enc.u64(traces);
  enc.f64(lambda);
  enc.u64(links);
  degradation.save(enc);
}

void MetroSummary::load(ck::Decoder& dec) {
  name = dec.str();
  ases = dec.u64();
  rank = dec.i32();
  traces = dec.u64();
  lambda = dec.f64();
  links = dec.u64();
  degradation.load(dec);
}

CampaignResult run_campaign(const CampaignConfig& cfg, World& world,
                            const util::RunControl& control,
                            const CampaignHooks& hooks) {
  CampaignResult out;
  std::vector<topology::MetroId> metros;
  out.error = select_metros(cfg, world, metros);
  if (!out.error.empty()) return out;

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) {
    out.error = "cannot create output directory '" + cfg.out_dir +
                "': " + ec.message();
    return out;
  }
  if (!cfg.checkpoint_path.empty()) {
    const auto dir = std::filesystem::path(cfg.checkpoint_path).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  }

  const std::string fp = fingerprint(cfg);
  RunState rs;
  if (!cfg.resume_path.empty()) {
    std::string diag;
    auto payload = ck::load_file(cfg.resume_path, &diag);
    if (!payload) {
      out.error = "no usable checkpoint at '" + cfg.resume_path + "' (" +
                  diag + ")";
      return out;
    }
    try {
      ck::Decoder dec(*payload);
      const std::string why = rs.load(dec, fp, world);
      if (!why.empty()) {
        out.error = "cannot resume from '" + cfg.resume_path + "': " + why;
        return out;
      }
    } catch (const ck::CheckpointError& e) {
      out.error = "corrupt checkpoint payload in '" + cfg.resume_path +
                  "': " + e.what();
      return out;
    }
    if (hooks.progress != nullptr)
      *hooks.progress << "resumed from " << cfg.resume_path << " ("
                      << rs.completed.size() << " metro(s) already complete"
                      << (rs.phase_blob.empty() ? "" : ", one mid-pipeline")
                      << ")\n";
  }

  auto checkpoint = [&] {
    // A boundary reached after a stop may follow truncated work, so only
    // boundaries before the stop are persisted.
    if (cfg.checkpoint_path.empty() || control.stop_requested()) return;
    ck::Encoder enc;
    rs.save(enc, fp, world);
    ck::WriteOptions wo;
    wo.keep_last = cfg.keep_checkpoints;
    if (!ck::write_file(cfg.checkpoint_path, enc.data(), wo)) {
      std::cerr << "warning: failed to write checkpoint to '"
                << cfg.checkpoint_path << "'\n";
      return;
    }
    ++out.checkpoints_written;
    dump_flight_recording(cfg.checkpoint_path);
    if (hooks.after_checkpoint) hooks.after_checkpoint(out.checkpoints_written);
  };

  for (std::size_t mi = rs.next_metro; mi < metros.size(); ++mi) {
    if (control.stop_requested()) {
      out.stopped_early = true;
      break;
    }
    const topology::MetroId metro = metros[mi];
    const core::MetroContext ctx(world.net, metro);
    const std::string& name =
        world.net.metros[mac::checked_cast<std::size_t>(metro)].name;
    if (hooks.progress != nullptr)
      *hooks.progress << "running metAScritic on " << name << "...\n";
    core::PipelineConfig pc;
    const std::uint64_t metro_seed =
        cfg.seed + mac::checked_cast<std::uint64_t>(metro) * 3;
    pc.scheduler.seed = metro_seed + 1;
    pc.rank.seed = metro_seed + 2;
    core::MetascriticPipeline pipeline(ctx, *world.ms, &rs.priors, pc);

    core::PipelineRunOptions po;
    po.control = &control;
    // Only a resumed run's first metro starts mid-pipeline.  The pipeline
    // reads the blob once, on entry, before a boundary overwrites it.
    const std::string resume_blob = std::exchange(rs.phase_blob, {});
    if (!resume_blob.empty()) po.resume_blob = &resume_blob;
    // Rank boundary: the phase blob is persisted together with the shared
    // measurement plane and the completed metros, so a kill at any
    // boundary resumes without losing a probe.
    if (!cfg.checkpoint_path.empty()) {
      po.checkpoint = [&rs, &checkpoint, mi](const std::string& phase_blob) {
        rs.next_metro = mi;
        rs.phase_blob = phase_blob;
        checkpoint();
      };
    }
    const core::PipelineResult result = pipeline.run(po);
    const double lambda = cfg.threshold.value_or(result.threshold);

    // Each CSV is rendered in memory, then published atomically: a crash
    // mid-export never leaves a truncated file for a resume to skip.
    auto publish = [&](const char* kind, auto&& render) {
      const std::string path = cfg.out_dir + "/" + name + "_" + kind + ".csv";
      std::ostringstream os;
      render(os);
      if (ck::atomic_write_file(path, os.str())) return true;
      out.error = "cannot write " + path;
      return false;
    };
    if (!publish("links", [&](std::ostream& os) {
          export_links_csv(os, ctx, result, lambda);
        }) ||
        !publish("ratings", [&](std::ostream& os) {
          export_ratings_csv(os, ctx, result);
        }) ||
        !publish("measurements", [&](std::ostream& os) {
          export_measurement_log_csv(os, ctx, result);
        }))
      break;

    MetroSummary summary;
    summary.name = name;
    summary.ases = ctx.size();
    summary.rank = result.estimated_rank;
    summary.traces = result.targeted_traceroutes;
    summary.lambda = lambda;
    for (std::size_t i = 0; i < ctx.size(); ++i)
      for (std::size_t j = i + 1; j < ctx.size(); ++j)
        if (result.ratings(i, j) >= lambda) ++summary.links;
    summary.degradation = result.degradation;
    rs.completed.push_back(summary);

    // Metro-completion boundary: persist the finished metro before moving
    // on, with no in-progress phase state.
    rs.next_metro = mi + 1;
    rs.phase_blob.clear();
    checkpoint();

    if (control.stop_requested()) {
      out.stopped_early = true;
      break;
    }
  }

  // A stop can land after the last checkpoint-time dump; refresh the
  // flight recording so it covers the final moments.
  if (out.stopped_early && !cfg.checkpoint_path.empty())
    dump_flight_recording(cfg.checkpoint_path);
  out.completed = std::move(rs.completed);
  return out;
}

}  // namespace metas::eval
