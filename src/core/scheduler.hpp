// Targeted-measurement scheduling (§3.3.1): epsilon-greedy batches mixing
// exploitation (fill the most deficient rows using P_m) and exploration
// (probe the least-known row/column pairs to correct P_m's errors).
//
// Alternative selection policies (random / greedy / only-exploration /
// only-exploitation / IXP-mapped) share the same machinery so the Table-2 and
// Fig-10/11 comparisons are apples to apples.
#pragma once

#include <cstdint>
#include <vector>

#include "core/measurement_system.hpp"
#include "core/probability.hpp"
#include "util/cancel.hpp"

namespace metas::core {

enum class SelectionPolicy {
  kMetascritic,     // epsilon-greedy exploit/explore
  kOnlyExploit,
  kOnlyExplore,
  kRandom,          // uniformly random unfilled entries
  kGreedy,          // entries with the highest P first
  kIxpMapped,       // prior work's probe/target restriction [17]
};

struct SchedulerConfig {
  double epsilon = 0.1;            // exploration fraction
  int batch_size = 300;
  int row_fail_limit = 6;          // successive uninformative tries per row
  SelectionPolicy policy = SelectionPolicy::kMetascritic;
  std::uint64_t seed = 11;
};

/// One issued targeted measurement, kept for the Fig.-4 calibration study.
struct IssuedRecord {
  int i = -1, j = -1;
  double estimated_prob = 0.0;
  bool ran = false;           // at least one probe launched
  bool informative = false;
  bool found_existence = false;
  bool found_nonexistence = false;
  bool exploration = false;   // picked by the explore arm (Fig.-4 split)
  bool infra_failure = false; // every attempt eaten by the infrastructure
  int attempts = 0;           // probe attempts, including failovers
  int launched = 0;           // attempts that spent measurement budget
  int faulted = 0;            // attempts that hit an injected fault
  int spent = 0;              // budget charged for this pick (audit trail)
};

/// Per-batch accounting: slots that selected a pick vs. probes that actually
/// spent measurement budget (a pick with no usable strategy, or one blocked
/// by the infrastructure before launch, selects without spending).
struct BatchResult {
  std::size_t selected = 0;
  std::size_t launched = 0;
};

/// Graceful-degradation summary of a measurement campaign at one metro:
/// what fill was achieved against the target, and what the infrastructure
/// cost along the way.  Counters accumulate over the scheduler's lifetime
/// and count only this scheduler's probes; fill statistics describe the
/// most recent fill_rows_to call.  The scheduler owns these numbers; the
/// `scheduler.*` telemetry counters mirror them (DESIGN.md §8).
struct DegradationReport {
  int fill_target = 0;             // per-row target of the last campaign
  std::size_t rows = 0;
  std::size_t rows_at_target = 0;
  std::size_t rows_given_up = 0;
  double fill_fraction = 0.0;      // mean over rows of min(filled/target, 1)
  std::size_t probes_launched = 0; // traceroutes that spent budget
  std::size_t probes_faulted = 0;  // attempts lost to infrastructure faults
  std::size_t retries = 0;         // failover attempts past the first
  std::size_t infra_failures = 0;  // measurements with every attempt faulted
  std::size_t requeues = 0;        // entries sent back with backoff
  std::size_t quarantined_vps = 0; // VPs sidelined when the campaign ended
  std::size_t dead_vps = 0;        // permanently churned VPs
  /// Pipeline phases a cancellation or deadline stopped early (filled in by
  /// the pipeline, not the scheduler; 0 on an uninterrupted run).
  std::size_t phases_truncated = 0;

  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);
};

class MeasurementScheduler {
 public:
  MeasurementScheduler(const MetroContext& ctx, MeasurementSystem& ms,
                       ProbabilityMatrix& pm, SchedulerConfig cfg);

  /// Issues batches until every (non-given-up) row of the current estimated
  /// matrix has at least `target` filled entries, the budget is exhausted, or
  /// no further progress is possible. Returns probes launched (budget spent).
  std::size_t fill_rows_to(int target, std::size_t budget);

  /// Runs one batch against the current fill state.  A context with fewer
  /// than two ASes has no entries, so the batch is empty.
  BatchResult run_batch(const EstimatedMatrix& current, int target);

  const std::vector<IssuedRecord>& history() const { return history_; }

  /// Rows the scheduler gave up on during the last fill_rows_to call.
  const std::vector<bool>& given_up() const { return given_up_; }

  /// Degradation summary; see DegradationReport for accumulation semantics.
  const DegradationReport& degradation() const { return degradation_; }

  /// Installs a cooperative stop control polled between batches (may be
  /// null).  A stop finishes the in-flight batch, runs the campaign's
  /// degradation accounting, and returns normally with the budget spent so
  /// far -- no partial batch is ever abandoned.
  void set_run_control(const util::RunControl* control) { control_ = control; }

  /// Checkpoint serialization of all mutable scheduler state: the RNG
  /// stream, the issued-measurement log, per-row fail/give-up state, the
  /// exploration/greedy/random bookkeeping, the backoff queue and the
  /// degradation report.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  struct Pick { int i = -1, j = -1; bool exploration = false; };
  Pick pick_exploit(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e, int target);
  Pick pick_explore(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e,
                    const std::vector<std::uint8_t>& batch_rows);
  Pick pick_random(const EstimatedMatrix& e);
  Pick pick_greedy(const EstimatedMatrix& e);
  /// Runs the pick; returns probes launched (0 when no strategy was usable
  /// or the infrastructure blocked every attempt before launch).
  std::size_t execute(const Pick& pick);
  bool under_backoff(int i, int j) const;
  void finish_campaign(int target);

  const MetroContext* ctx_;  // lint: allow(view-member) -- caller-owned context; schedulers are per-metro and scoped inside the pipeline
  MeasurementSystem* ms_;  // lint: allow(view-member) -- caller-owned measurement system, same scope as ctx_
  ProbabilityMatrix* pm_;  // lint: allow(view-member) -- caller-owned matrix the scheduler reads/refines in place
  const util::RunControl* control_ = nullptr;  // lint: allow(view-member) -- optional stop control owned by the pipeline's caller; may be null
  SchedulerConfig cfg_;
  util::Rng rng_;
  std::vector<IssuedRecord> history_;
  std::vector<int> fail_streak_;
  std::vector<bool> given_up_;
  // Per-entry state is dense, indexed by entry key (lo * n + hi), so the
  // O(n) and O(n^2) pick scans probe it with one array index.
  std::vector<std::uint8_t> explored_entries_;  // lifetime 1 per entry
  std::vector<std::pair<double, std::uint64_t>> greedy_order_;  // lazy, desc
  std::size_t greedy_cursor_ = 0;
  std::vector<std::uint8_t> attempted_;  // greedy/random de-dup

  DegradationReport degradation_;
  std::uint64_t sched_tick_ = 0;  // one per batch slot processed
  // Infra-failed entries waiting out their backoff, by entry key; an entry
  // is requeued while fails > 0.
  struct Backoff {
    std::uint64_t retry_at = 0;  // tick at which the entry is pickable again
    int fails = 0;               // consecutive infra failures
  };
  std::vector<Backoff> requeued_;
  // P row of the last exploited row, valid while P_m's version is
  // exploit_version_ (a row stuck behind backoff is rescanned every slot);
  // a negative value marks an entry not evaluated yet.  Never serialized.
  int exploit_row_ = -1;
  std::uint64_t exploit_version_ = 0;
  std::vector<double> exploit_p_;
};

}  // namespace metas::core
