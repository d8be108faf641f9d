// Adversarial fault campaigns: seeded sweeps of random FaultPlans against
// the paper's algorithms, with liveness monitoring, violation tapes, and
// automatic ddmin shrinking.
//
// A CampaignTarget binds a repro scenario (core/repro_scenarios.hpp) to an
// honest advice detector, a scheduler family, liveness bounds, and a
// FaultPlan::Space. For every plan seed the campaign:
//
//  1. samples a FaultPlan and, when it contains S-kills, resolves them in a
//     REHEARSAL drive (the whole plan's drive_faults() over the base
//     pattern, on sim/schedule's one drive loop) into concrete crash times;
//     the rehearsal (rehearse_kills) stops once no kill can still land;
//  2. re-runs authoritatively with the EFFECTIVE failure pattern — the base
//     pattern plus the rehearsed crash times — so honest advice is computed
//     over the failures that actually happen (an Ω that keeps endorsing a
//     killed leader would be a lie, not a fault-tolerance finding). This
//     drive runs the same loop with the plan's resolved link charges and no
//     kills. The plan's FD corruption wraps the advice (fd/faulty.hpp),
//     bursts wrap the scheduler, and a LivenessMonitor (core/monitors.hpp)
//     watches every step with bounds scaled by the plan's corruption window,
//     burst lengths and link charges;
//  3. evaluates the scenario safety predicate + the monitor's wait-freedom
//     certificate; violations are captured as plain efd-tape-v1 tapes
//     (ScheduleTape::capture, on a violation only; the FaultPlan text is
//     attached as the `plan` provenance line), saved under save_dir, and
//     ddmin-shrunk and double-replayed by shrink_finding
//     (core/repro_scenarios.hpp).
//
// Campaign runs are deterministic in (seed, plans): same inputs, same plans,
// same verdicts, same tapes. Starvation watchdog hits are reported as
// schedule observations and never counted as algorithm violations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/corpus.hpp"
#include "core/monitors.hpp"
#include "core/repro_scenarios.hpp"
#include "core/telemetry.hpp"
#include "fd/detectors.hpp"
#include "sim/faultplan.hpp"

namespace efd {

struct CampaignTarget {
  std::string name;       ///< short key for the CLI / JSON ("cons", "tw", ...)
  std::string scenario;   ///< repro-scenario registry key (worlds + safety)
  std::string algorithm;  ///< human-readable algorithm label

  int num_s = 0;                              ///< S-processes of the base pattern
  std::function<DetectorPtr()> advice;        ///< honest advice detector
  /// Scheduler family (seeded); the campaign wraps it in Burst + Recording.
  std::function<std::unique_ptr<Scheduler>(std::uint64_t seed)> make_sched;

  std::int64_t max_steps = 4000;

  // Base liveness bounds (0 disables the check). Scaled PER PLAN: the
  // wait-freedom bound grows with the advice stabilization time and the
  // plan's total burst length, the watchdog windows likewise — planned
  // unfairness must not masquerade as an algorithm violation.
  MonitorBounds bounds;

  bool expect_clean = true;  ///< correct algorithm: any violation is a finding
  FaultPlan::Space space;    ///< plan sampling dimensions
};

/// The built-in sweep list: the paper algorithms expected to survive every
/// plan, plus the seeded-buggy variants the campaign must catch.
[[nodiscard]] const std::vector<CampaignTarget>& campaign_targets();
[[nodiscard]] const CampaignTarget* find_campaign_target(const std::string& name);

struct CampaignViolation {
  std::string target;
  std::uint64_t plan_seed = 0;
  std::string plan;           ///< FaultPlan::to_string of the offending plan
  bool safety = false;        ///< scenario predicate fired
  bool wait_free = false;     ///< monitor wait-freedom bound broken
  std::string detail;         ///< one-line human diagnosis
  std::int64_t tape_steps = 0;
  std::int64_t shrunk_steps = 0;   ///< 0 when shrinking was skipped
  bool shrunk_replay_ok = false;   ///< shrunk tape double-replayed bit-identically
  std::string tape_path;           ///< "" when save_dir was empty
};

struct CampaignOptions {
  std::uint64_t seed = 42;
  int plans = 100;          ///< plans per target
  bool monitors = true;     ///< attach the LivenessMonitor
  bool shrink = true;       ///< ddmin-shrink safety-violation tapes
  std::string save_dir;     ///< violation tape directory; "" disables saving
};

/// One target's sweep outcome.
struct CampaignRun {
  std::string target;
  std::string scenario;
  std::string algorithm;
  bool expect_clean = true;
  int plans = 0;
  int clean_plans = 0;
  // Plan-mix counters (how many sampled plans contained each fault family).
  int plans_with_fd_fault = 0;
  int plans_with_storm = 0;
  int plans_with_trigger = 0;
  int plans_with_burst = 0;
  int plans_with_link = 0;  ///< plans carrying link actions (drop/dup/delay/reorder/sever)
  std::int64_t total_steps = 0;       ///< authoritative-drive steps
  /// Trigger/storm rehearsal steps, up to the step after which no kill
  /// could still land (or the rehearsal's ordinary stop, if earlier).
  std::int64_t rehearsal_steps = 0;
  std::int64_t monitored_steps = 0;
  std::int64_t max_own_steps_to_decide = 0;  ///< worst over all plans
  std::int64_t starvation_observations = 0;  ///< watchdog hits (not violations)
  std::vector<CampaignViolation> violations;

  [[nodiscard]] int safety_violations() const;
  [[nodiscard]] int wait_free_violations() const;
  /// expect_clean targets must have zero violations; buggy targets at least
  /// one safety violation with a verified shrunk tape.
  [[nodiscard]] bool verdict_ok() const;
};

/// Sweeps `opts.plans` seeded fault plans against one target. Throws
/// CorpusIoError when `opts.save_dir` cannot be created (checked ONCE, up
/// front — tools map it to a distinct exit code; tapes must never vanish
/// silently into an unwritable directory).
[[nodiscard]] CampaignRun run_campaign(const CampaignTarget& target, const CampaignOptions& opts);

/// The `efd-campaign-v1` document for a set of runs (schema in
/// EXPERIMENTS.md E15; bench_diff.py --validate accepts it).
[[nodiscard]] telemetry::Json campaign_json(const std::vector<CampaignRun>& runs,
                                            const CampaignOptions& opts);

// ---------------------------------------------------------------------------
// Campaign farm: the resident, corpus-backed form of the sweep (DESIGN.md
// 4g, EXPERIMENTS.md E18). run_farm streams plans from the seeded
// generator / coverage-guided mutator / an external PlanSource, dispatches
// them across workers as batches on one ResidentPool, dedups findings
// against a persistent CorpusStore, and shrinks + double-replay-verifies
// only novel findings. Verdicts for identical (plan_seed, plan) inputs are
// byte-identical to the one-shot runner's: both run the same run_plan.
// ---------------------------------------------------------------------------

/// Deterministic per-plan seed: folds the campaign seed, the TARGET NAME and
/// the plan index. Folding the name is load-bearing — deriving from the
/// index alone made every target sample the SAME plan sequence (perfectly
/// correlated coverage across targets; regression-pinned in test_campaign).
[[nodiscard]] std::uint64_t campaign_plan_seed(std::uint64_t campaign_seed,
                                               const std::string& target, int index);

/// One plan's verdict — the unit of work both run_campaign and run_farm
/// execute. Pure in (target, plan, plan_seed, monitors): thread-safe and
/// byte-deterministic, which is what lets the farm fan plans out across
/// workers without perturbing verdicts.
struct PlanOutcome {
  std::uint64_t plan_seed = 0;
  FaultPlan plan;
  bool safety = false;          ///< scenario predicate fired
  /// Monitor liveness verdict broken: the wait-freedom bound, or (on targets
  /// with a retransmit_storm_window) a retransmit-storm livelock flag.
  bool wait_free_bad = false;
  bool retransmit_storm = false;  ///< the storm watchdog specifically fired
  std::string detail;
  std::int64_t steps = 0;
  std::int64_t rehearsal_steps = 0;
  std::int64_t monitored_steps = 0;
  std::int64_t max_own_steps_to_decide = 0;
  std::int64_t starvation_observations = 0;
  /// Coarse trace-shape signature (which (process, op, register) triples the
  /// run exercised + decision count). Interleaving-insensitive by design:
  /// the farm mutates plans whose runs flip a bit nobody flipped before.
  std::uint64_t coverage_sig = 0;
  /// Populated ONLY on violation: the captured tape, finding + plan lines
  /// stamped (finding = "safety" / "wait-free" / "safety+wait-free").
  ScheduleTape tape;

  [[nodiscard]] bool violated() const { return safety || wait_free_bad; }
};

/// Runs one plan against one target (rehearsal, effective-pattern re-drive,
/// monitors, tape capture on violation). Shared by the one-shot sweep and
/// the farm workers.
[[nodiscard]] PlanOutcome run_plan(const CampaignTarget& target, const FaultPlan& plan,
                                   std::uint64_t plan_seed, bool monitors);

/// External plan queue (the `serve` FIFO): non-blocking; each poll returns
/// one (target-name, plan) submission or nullopt.
class PlanSource {
 public:
  virtual ~PlanSource() = default;
  virtual std::optional<std::pair<std::string, FaultPlan>> poll() = 0;
};

struct FarmOptions {
  std::uint64_t seed = 42;
  int workers = 8;
  int batch = 64;              ///< plans per work-stealing dispatch batch
  std::int64_t max_plans = 0;  ///< stop after this many plans (0: unbounded)
  double duration_s = 0;       ///< stop after this much wall time (0: unbounded)
  bool monitors = true;
  bool shrink = true;
  bool mutate = true;          ///< coverage-guided mutation of novel-coverage plans
  std::string corpus_dir;     ///< persistent corpus directory ("": in-memory dedup)
  std::vector<std::string> seed_corpora;  ///< read-only corpora absorbed at startup
  double soak_interval_s = 5.0;           ///< streaming soak-record cadence
  std::function<void(const telemetry::Json&)> on_soak;  ///< soak-record sink
  PlanSource* source = nullptr;             ///< external plan queue (may be null)
  const std::atomic<bool>* stop = nullptr;  ///< graceful-drain flag (SIGINT)
};

struct FarmTargetStats {
  std::string target;
  bool expect_clean = true;
  std::int64_t plans = 0;
  std::int64_t clean = 0;
  std::int64_t safety_violations = 0;
  std::int64_t wait_free_violations = 0;
  std::int64_t novel = 0;       ///< findings inserted into the corpus
  std::int64_t duplicates = 0;  ///< findings already in the corpus
  std::int64_t starvation_observations = 0;
  std::int64_t coverage_sigs = 0;  ///< distinct coverage signatures seen
  std::int64_t mutated = 0;        ///< plans produced by mutate/splice
  std::int64_t external = 0;       ///< plans submitted via the PlanSource
  std::int64_t total_steps = 0;
};

struct FarmStats {
  std::int64_t plans = 0;
  std::int64_t clean = 0;
  std::int64_t violations = 0;
  std::int64_t novel = 0;
  std::int64_t duplicates = 0;
  std::int64_t shrunk = 0;
  std::int64_t shrink_replays_ok = 0;
  std::int64_t mutated = 0;
  std::int64_t external = 0;
  std::int64_t coverage_sigs = 0;
  std::int64_t total_steps = 0;
  std::int64_t batches = 0;
  double elapsed_s = 0;
  std::size_t corpus_size = 0;
  std::size_t corpus_aliases = 0;
  int corpus_seeded = 0;     ///< entries indexed from corpus dir + seed corpora
  int quarantined = 0;       ///< malformed corpus entries moved aside at open
  bool drained = false;      ///< stopped via the stop flag (graceful drain)
  std::vector<FarmTargetStats> targets;
};

/// Runs the farm until a stop condition (stop flag, duration, max_plans)
/// holds at a batch boundary — the in-flight batch always completes and its
/// findings are processed (graceful drain). Throws CorpusIoError when the
/// corpus directory cannot be created or written.
[[nodiscard]] FarmStats run_farm(const std::vector<const CampaignTarget*>& targets,
                                 const FarmOptions& opts);

/// One `efd-campaign-farm-v1` soak record (schema in EXPERIMENTS.md E18;
/// bench_diff.py --validate dispatches on it). `mode` is "soak" for the
/// streaming interval records and "final" for the end-of-run document.
[[nodiscard]] telemetry::Json farm_json(const FarmStats& stats, const FarmOptions& opts,
                                        const std::string& mode);

}  // namespace efd
