#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <system_error>
#include <unordered_set>

#include "core/repro_scenarios.hpp"
#include "core/workpool.hpp"
#include "sim/hash.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

std::uint64_t mix_seed(std::uint64_t seed, int i) {
  return splitmix64_finalize(seed + kGoldenGamma * (static_cast<std::uint64_t>(i) + 1));
}

std::string hex16(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// Coarse AFL-style coverage signature of one run: a 64-bit presence map of
/// the (process, op, register) triples the run exercised, mixed with the
/// decision count. Interleaving- and step-count-insensitive, so thousands of
/// random schedules of the same behaviour collapse onto a handful of
/// signatures — a plan that flips a fresh bit reached genuinely new
/// behaviour and is worth mutating.
std::uint64_t trace_coverage_sig(const Trace& tr) {
  std::uint64_t map = 0;
  std::int64_t decisions = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (tr.null_at(i)) continue;
    const Pid pid = tr.pid_at(i);
    const OpKind op = tr.op_at(i);
    std::uint64_t h = (static_cast<std::uint64_t>(pid.is_s()) << 40) ^
                      (static_cast<std::uint64_t>(pid.index) << 32) ^
                      (static_cast<std::uint64_t>(op) << 24);
    const RegAddr addr = tr.addr_at(i);
    if (addr.valid()) h ^= addr.name_hash();
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    map |= 1ULL << (h & 63);
    if (op == OpKind::kDecide) ++decisions;
  }
  return map ^ (0x632BE59BD9B4E019ULL * static_cast<std::uint64_t>(decisions + 1));
}

/// Sum of non-negative terms, saturating at INT64_MAX: plan text is
/// unclamped, so a burst length near INT64_MAX must widen a monitor bound,
/// not wrap it negative.
std::int64_t saturating_sum(std::initializer_list<std::int64_t> terms) {
  std::int64_t out = 0;
  for (const std::int64_t t : terms) out = sat_add(out, t);
  return out;
}

/// Hoisted, checked ONCE per run (the old code re-ran create_directories
/// inside the per-plan violation loop and ignored its failure — on a
/// read-only directory every tape silently vanished).
void require_writable_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    throw CorpusIoError("campaign: cannot create save dir " + dir +
                        (ec ? ": " + ec.message() : ""));
  }
}

std::function<std::unique_ptr<Scheduler>(std::uint64_t)> random_sched() {
  return [](std::uint64_t seed) -> std::unique_ptr<Scheduler> {
    return std::make_unique<RandomScheduler>(seed ^ 0x5EEDF00DULL);
  };
}

/// Seeded arrival permutation for the 1-concurrent window target.
std::function<std::unique_ptr<Scheduler>(std::uint64_t)> window_sched(int num_c) {
  return [num_c](std::uint64_t seed) -> std::unique_ptr<Scheduler> {
    std::vector<int> arrival(static_cast<std::size_t>(num_c));
    for (int i = 0; i < num_c; ++i) arrival[static_cast<std::size_t>(i)] = i;
    std::uint64_t z = seed;
    for (int i = num_c - 1; i > 0; --i) {
      z = mix_seed(z, i);
      std::swap(arrival[static_cast<std::size_t>(i)],
                arrival[static_cast<std::size_t>(z % static_cast<std::uint64_t>(i + 1))]);
    }
    return std::make_unique<KConcurrencyScheduler>(1, std::move(arrival), 0);
  };
}

std::vector<CampaignTarget> build_targets() {
  std::vector<CampaignTarget> out;
  {
    CampaignTarget t;
    t.name = "cons";
    t.scenario = "cons_leader_crash_commit";
    t.algorithm = "leader consensus (Omega advice + Paxos)";
    t.num_s = 3;
    t.advice = [] { return std::make_shared<OmegaFd>(12); };
    t.make_sched = random_sched();
    t.max_steps = 12000;
    t.bounds = {800, 2500, 5000};
    t.expect_clean = true;
    t.space.num_s = 3;
    t.space.num_c = 3;
    t.space.horizon = 2500;
    t.space.max_crashes = 2;
    t.space.trigger_prefixes = {"cons/ACC"};
    t.space.allow_fd_faults = true;
    t.space.max_gst = 60;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 400;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "ksa";
    t.scenario = "ksa_starved_leader";
    t.algorithm = "k-set agreement (vector-Omega-k advice, KSA)";
    t.num_s = 4;
    t.advice = [] { return std::make_shared<VectorOmegaK>(2, 25); };
    t.make_sched = random_sched();
    t.max_steps = 12000;
    t.bounds = {1200, 2500, 5000};
    t.expect_clean = true;
    t.space.num_s = 4;
    t.space.num_c = 4;
    t.space.horizon = 2500;
    t.space.max_crashes = 2;
    t.space.trigger_prefixes = {"ksa/"};
    t.space.allow_fd_faults = true;
    t.space.max_gst = 60;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 400;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "ren";
    t.scenario = "renaming_flip_lockstep";
    t.algorithm = "k-concurrent renaming (Fig. 4)";
    t.num_s = 1;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 8000;
    t.bounds = {600, 2000, 4000};
    t.expect_clean = true;
    t.space.num_s = 1;
    t.space.num_c = 3;
    t.space.horizon = 2000;
    t.space.max_crashes = 1;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 300;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "p1c";
    t.scenario = "one_conc_window";
    t.algorithm = "generic 1-concurrent solver (Prop. 1) on consensus";
    t.num_s = 0;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = window_sched(3);
    t.max_steps = 2000;
    t.bounds = {64, 500, 500};
    t.expect_clean = true;
    t.space.num_s = 0;
    t.space.num_c = 3;
    t.space.horizon = 500;
    t.space.max_crashes = 0;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 100;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "synth";
    t.scenario = "synth_write_race";
    t.algorithm = "seeded bug: racing writers (shrinker reference)";
    t.num_s = 1;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 2000;
    t.expect_clean = false;
    t.space.num_s = 1;
    t.space.num_c = 3;
    t.space.horizon = 1000;
    t.space.max_crashes = 1;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 200;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "bcf";
    t.scenario = "buggy_cons_first_writer";
    t.algorithm = "seeded bug: first-writer consensus";
    t.num_s = 1;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 1500;
    t.expect_clean = false;
    t.space.num_s = 1;
    t.space.num_c = 8;
    t.space.horizon = 500;
    t.space.max_crashes = 1;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 100;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "brn";
    t.scenario = "buggy_ren_stale_claim";
    t.algorithm = "seeded bug: stale-claim renaming";
    t.num_s = 1;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 1500;
    t.expect_clean = false;
    t.space.num_s = 1;
    t.space.num_c = 8;
    t.space.horizon = 500;
    t.space.max_crashes = 1;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 100;
    out.push_back(std::move(t));
  }
  {
    CampaignTarget t;
    t.name = "tw";
    t.scenario = "buggy_torn_commit";
    t.algorithm = "seeded bug: torn A/B epoch commit";
    t.num_s = 1;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 2000;
    t.expect_clean = false;
    t.space.num_s = 1;
    t.space.num_c = 4;
    t.space.horizon = 800;
    t.space.max_crashes = 1;
    t.space.trigger_prefixes = {"tw/A", "tw/B"};
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 150;
    out.push_back(std::move(t));
  }
  {
    // E20 lossy-link pair, raw half: FloodMin with a decision timeout over
    // the 3x3 message grid. Random link storms (drops, severs) starve
    // processes into deciding on partial views and break 2-set agreement —
    // the campaign must CATCH it with a shrunk, double-replayed tape.
    CampaignTarget t;
    t.name = "mpfm_raw";
    t.scenario = "mp_floodmin_lossy_raw";
    t.algorithm = "seeded bug: timeout FloodMin over lossy links (E20 raw)";
    t.num_s = 9;  // the 3x3 link-daemon grid
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 6000;
    t.expect_clean = false;
    t.space.num_s = 0;  // daemons are infrastructure: no S-kills
    t.space.num_c = 3;
    // Tight horizon: unstormed runs decide within ~150 steps, so charges
    // sampled over a longer window would land on finished runs.
    t.space.horizon = 80;
    t.space.max_crashes = 0;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 100;
    t.space.mp_senders = 3;
    t.space.mp_mailboxes = 3;
    t.space.max_link_actions = 8;
    t.space.max_link_charge = 3;
    t.space.max_sever_window = 48;
    out.push_back(std::move(t));
  }
  {
    // E20 lossy-link pair, hardened half: the SAME decision problem behind
    // the ack/retransmit layer. Must survive every storm the space can
    // sample — the per-link loss budget (actions x charge) stays below the
    // retry budget (12 doubling rounds), so liveness bounds can be honest.
    CampaignTarget t;
    t.name = "mpfm_rt";
    t.scenario = "mp_floodmin_lossy_rt";
    t.algorithm = "retransmit-hardened FloodMin over lossy links (E20)";
    t.num_s = 9;
    t.advice = [] { return std::make_shared<TrivialFd>(); };
    t.make_sched = random_sched();
    t.max_steps = 30000;
    t.bounds = {3000, 8000, 16000};
    t.bounds.retransmit_storm_window = 400;
    t.expect_clean = true;
    t.space.num_s = 0;
    t.space.num_c = 3;
    // Tight horizon: unstormed runs decide within ~150 steps, so charges
    // sampled over a longer window would land on finished runs.
    t.space.horizon = 140;
    t.space.max_crashes = 0;
    t.space.allow_fd_faults = false;
    t.space.max_bursts = 2;
    t.space.max_burst_len = 100;
    t.space.mp_senders = 3;
    t.space.mp_mailboxes = 3;
    t.space.max_link_actions = 4;
    t.space.max_link_charge = 2;
    t.space.max_sever_window = 32;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

const std::vector<CampaignTarget>& campaign_targets() {
  static const std::vector<CampaignTarget> targets = build_targets();
  return targets;
}

const CampaignTarget* find_campaign_target(const std::string& name) {
  for (const auto& t : campaign_targets()) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

int CampaignRun::safety_violations() const {
  return static_cast<int>(std::count_if(violations.begin(), violations.end(),
                                        [](const CampaignViolation& v) { return v.safety; }));
}

int CampaignRun::wait_free_violations() const {
  return static_cast<int>(std::count_if(violations.begin(), violations.end(),
                                        [](const CampaignViolation& v) { return v.wait_free; }));
}

bool CampaignRun::verdict_ok() const {
  if (expect_clean) return violations.empty();
  return std::any_of(violations.begin(), violations.end(), [](const CampaignViolation& v) {
    return v.safety && (v.shrunk_steps == 0 || v.shrunk_replay_ok);
  });
}

std::uint64_t campaign_plan_seed(std::uint64_t campaign_seed, const std::string& target,
                                 int index) {
  // The target-name fold decorrelates plan sequences across targets: the old
  // mix_seed(seed, i) gave every target the SAME plans (and two campaigns
  // writing into one save_dir the same tape stems).
  return mix_seed(campaign_seed ^ fnv1a(target), index);
}

PlanOutcome run_plan(const CampaignTarget& target, const FaultPlan& plan,
                     std::uint64_t plan_seed, bool monitors) {
  const Scenario* sc = find_scenario(target.scenario);
  if (sc == nullptr) {
    throw std::invalid_argument("run_plan: unknown scenario " + target.scenario);
  }
  if (!target.advice || !target.make_sched) {
    throw std::invalid_argument("run_plan: target '" + target.name +
                                "' missing advice or scheduler factory");
  }

  PlanOutcome out;
  out.plan_seed = plan_seed;
  out.plan = plan;

  const FailurePattern base(target.num_s);
  const DetectorPtr advice = plan.corrupt(target.advice());

  // Rehearsal: resolve the plan's S-kills (storm step indices, trigger
  // matches) into concrete crash TIMES over the base pattern. It stops once
  // no kill can still land: the rest of the run cannot change them.
  std::vector<std::optional<Time>> crash_at(static_cast<std::size_t>(target.num_s));
  if (!plan.storm.empty() || !plan.triggers.empty()) {
    World rehearsal = sc->make_world(base, advice->history(base, plan_seed));
    const auto inner = target.make_sched(plan_seed);
    BurstScheduler bursts(*inner, plan.bursts);
    const PlanDriveResult pdr =
        rehearse_kills(rehearsal, bursts, target.max_steps, plan.drive_faults());
    out.rehearsal_steps = pdr.drive.steps;
    int never_crashed = target.num_s;
    for (std::size_t k = 0; k < pdr.applied.size(); ++k) {
      const auto qi = static_cast<std::size_t>(pdr.applied[k].s_index);
      if (crash_at[qi]) continue;
      // Correct algorithms are only live while some S-process survives:
      // cap the kills there so a liveness violation is the ALGORITHM's.
      if (target.expect_clean && never_crashed <= 1) continue;
      crash_at[qi] = pdr.applied_at[k];
      --never_crashed;
    }
  }
  const FailurePattern eff(crash_at);

  // Authoritative run: honest advice recomputed over the EFFECTIVE
  // pattern, then plan-corrupted; bursts wrap the scheduler; the monitor
  // watches with plan-scaled bounds.
  const DetectorPtr eff_advice = plan.corrupt(target.advice());
  World w = sc->make_world(eff, eff_advice->history(eff, plan_seed));
  w.enable_trace();

  std::int64_t total_burst = 0;
  for (const auto& b : plan.bursts) total_burst = saturating_sum({total_burst, b.length});
  // Link-fault liveness allowance: every lost delivery costs the hardened
  // protocols a doubling-backoff retry wait, so the worst-case recovery time
  // is exponential in the per-run loss budget (capped well below the retry
  // horizon by the target's space). Sever windows only HOLD messages; they
  // add linearly.
  std::int64_t lost_charge = 0;
  std::int64_t sever_hold = 0;
  for (const auto& la : plan.links) {
    if (la.kind == LinkFaultKind::kSever) {
      sever_hold += la.amount;
    } else {
      lost_charge += la.amount;
    }
  }
  const std::int64_t link_wait =
      plan.links.empty()
          ? 0
          : (std::int64_t{16} << std::min<std::int64_t>(lost_charge + 1, 10)) + 4 * sever_hold;
  const Time stab = eff_advice->stabilization_time(eff);
  MonitorBounds mb;
  if (target.bounds.own_steps_to_decide > 0) {
    mb.own_steps_to_decide = saturating_sum(
        {target.bounds.own_steps_to_decide, sat_mul(2, stab), total_burst, link_wait});
  }
  if (target.bounds.starvation_window > 0) {
    mb.starvation_window = saturating_sum({target.bounds.starvation_window, total_burst});
  }
  if (target.bounds.livelock_window > 0) {
    mb.livelock_window = saturating_sum({target.bounds.livelock_window, sat_mul(4, stab),
                                         total_burst, total_burst, 2 * link_wait});
  }
  if (target.bounds.retransmit_storm_window > 0) {
    // Each lost delivery legitimately buys extra retransmissions; the storm
    // flag is reserved for send volume NO sampled loss budget explains.
    mb.retransmit_storm_window =
        target.bounds.retransmit_storm_window + 16 * lost_charge + 8 * sever_hold;
  }
  LivenessMonitor monitor(mb);
  if (monitors) w.attach_observer(&monitor);

  const auto inner = target.make_sched(plan_seed);
  BurstScheduler bursts(*inner, plan.bursts);
  RecordingScheduler rec(bursts);
  // The plan's S-kills are already the effective pattern: only its link
  // charges ride along.
  const PlanDriveResult pdr =
      drive_with_faults(w, rec, target.max_steps, {.links = plan.resolve_links()});
  w.attach_observer(nullptr);
  if (monitors) monitor.finalize(w);

  out.steps = pdr.drive.steps;
  out.monitored_steps = monitor.monitored_steps();
  out.max_own_steps_to_decide = monitor.max_own_steps_to_decide();
  for (const auto& v : monitor.violations()) {
    if (v.kind == MonitorViolation::Kind::kStarvation) ++out.starvation_observations;
    if (v.kind == MonitorViolation::Kind::kRetransmitStorm) out.retransmit_storm = true;
  }
  out.coverage_sig = trace_coverage_sig(w.trace());

  out.safety = sc->violated(w);
  // A retransmit storm is a liveness finding on par with a broken
  // wait-freedom bound: the hardened protocols must converge without
  // unexplained send volume. Only targets that SET the storm window can flag
  // it, so link-free targets are untouched.
  out.wait_free_bad = monitors && (!monitor.wait_free_ok() || out.retransmit_storm);
  if (!out.violated()) return out;

  if (out.safety) {
    out.detail = "scenario safety predicate violated";
  }
  if (out.wait_free_bad) {
    for (const auto& v : monitor.violations()) {
      if (v.kind == MonitorViolation::Kind::kWaitFree ||
          v.kind == MonitorViolation::Kind::kRetransmitStorm) {
        if (!out.detail.empty()) out.detail += "; ";
        out.detail += v.to_string();
        break;
      }
    }
  }

  // Captured only here, on a violation: clean plans never pay for a tape.
  out.tape = ScheduleTape::capture(target.scenario, eff, rec.steps(), pdr, w);
  // expect_violated records the SAFETY predicate outcome truthfully (a
  // wait-freedom-only tape replays "ok, as expected"); the finding line is
  // the triage-facing verdict that says WHY the tape was kept.
  out.tape.expect_violated = out.safety;
  out.tape.plan = plan.to_string();
  out.tape.finding = out.safety && out.wait_free_bad ? "safety+wait-free"
                     : out.safety                    ? "safety"
                                                     : "wait-free";
  return out;
}

CampaignRun run_campaign(const CampaignTarget& target, const CampaignOptions& opts) {
  if (find_scenario(target.scenario) == nullptr) {
    throw std::invalid_argument("run_campaign: unknown scenario " + target.scenario);
  }
  if (!opts.save_dir.empty()) require_writable_dir(opts.save_dir);

  CampaignRun run;
  run.target = target.name;
  run.scenario = target.scenario;
  run.algorithm = target.algorithm;
  run.expect_clean = target.expect_clean;
  run.plans = opts.plans;

  for (int i = 0; i < opts.plans; ++i) {
    const std::uint64_t plan_seed = campaign_plan_seed(opts.seed, target.name, i);
    const FaultPlan plan = FaultPlan::sample(plan_seed, target.space);
    if (plan.fd.kind != FdFaultKind::kNone) ++run.plans_with_fd_fault;
    if (!plan.storm.empty()) ++run.plans_with_storm;
    if (!plan.triggers.empty()) ++run.plans_with_trigger;
    if (!plan.bursts.empty()) ++run.plans_with_burst;
    if (!plan.links.empty()) ++run.plans_with_link;

    PlanOutcome out = run_plan(target, plan, plan_seed, opts.monitors);
    run.total_steps += out.steps;
    run.rehearsal_steps += out.rehearsal_steps;
    run.monitored_steps += out.monitored_steps;
    run.max_own_steps_to_decide =
        std::max(run.max_own_steps_to_decide, out.max_own_steps_to_decide);
    run.starvation_observations += out.starvation_observations;

    if (!out.violated()) {
      ++run.clean_plans;
      continue;
    }

    CampaignViolation viol;
    viol.target = target.name;
    viol.plan_seed = plan_seed;
    viol.plan = out.tape.plan;
    viol.safety = out.safety;
    viol.wait_free = out.wait_free_bad;
    viol.detail = out.detail;
    viol.tape_steps = static_cast<std::int64_t>(out.tape.steps.size());

    std::string stem;
    if (!opts.save_dir.empty()) {
      // Collision-proof stem: campaign seed + plan seed + the tape's own
      // trace hash. Two campaigns sharing a save_dir can no longer silently
      // overwrite each other's findings.
      stem = opts.save_dir + "/" + target.name + "_s" + std::to_string(opts.seed) + "_" +
             std::to_string(plan_seed) + "_" + hex16(out.tape.expect_hash.value_or(0));
      save_tape(out.tape, stem + ".tape");
      viol.tape_path = stem + ".tape";
    }

    // Auto-shrink safety violations (the ddmin oracle is the scenario
    // predicate; wait-freedom-only findings have no tape-level oracle).
    if (opts.shrink && out.safety) {
      const ShrunkFinding sf = shrink_finding(target.scenario, out.tape);
      viol.shrunk_steps = static_cast<std::int64_t>(sf.mini.steps.size());
      viol.shrunk_replay_ok = sf.replay_ok;
      if (!stem.empty()) save_tape(sf.mini, stem + ".min.tape");
    }
    run.violations.push_back(std::move(viol));
  }
  return run;
}

namespace {

/// Per-target farm state, advanced only by the (sequential) dispatcher.
struct TargetState {
  const CampaignTarget* target = nullptr;
  FarmTargetStats stats;
  int next_index = 0;     ///< next fresh-sample plan index
  int external_index = 0; ///< seed counter for PlanSource submissions
  std::unordered_set<std::uint64_t> sigs;  ///< coverage signatures seen
  std::deque<FaultPlan> pool;              ///< novel-coverage plans (mutation fuel)

  void remember(const FaultPlan& plan) {
    pool.push_back(plan);
    if (pool.size() > 64) pool.pop_front();
  }
};

/// One batch slot: everything the sequential post-pass needs, in slot order.
struct Slot {
  int target = 0;  ///< index into states
  FaultPlan plan;
  std::uint64_t plan_seed = 0;
  bool mutated = false;
  bool external = false;
  PlanOutcome out;
  std::uint64_t raw_key = 0;             ///< corpus_key of the raw tape (violations)
  std::optional<ShrunkFinding> shrunk;   ///< filled by the parallel shrink pass
};

}  // namespace

FarmStats run_farm(const std::vector<const CampaignTarget*>& targets, const FarmOptions& opts) {
  if (targets.empty()) throw std::invalid_argument("run_farm: no targets");
  for (const auto* t : targets) {
    if (t == nullptr) throw std::invalid_argument("run_farm: null target");
    if (find_scenario(t->scenario) == nullptr) {
      throw std::invalid_argument("run_farm: unknown scenario " + t->scenario);
    }
  }

  FarmStats stats;
  CorpusStore corpus;
  if (!opts.corpus_dir.empty()) {
    const CorpusStore::LoadReport rep = corpus.open(opts.corpus_dir);
    stats.corpus_seeded += rep.loaded;
    stats.quarantined += rep.quarantined;
  }
  for (const auto& dir : opts.seed_corpora) {
    const CorpusStore::LoadReport rep = corpus.absorb(dir);
    stats.corpus_seeded += rep.loaded;
    stats.quarantined += rep.quarantined;
  }

  std::vector<TargetState> states(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    states[t].target = targets[t];
    states[t].stats.target = targets[t]->name;
    states[t].stats.expect_clean = targets[t]->expect_clean;
  }

  // One resident crew for the whole serve: per-batch thread spawn costs more
  // than it looks — each fresh std::thread starts with cold thread-local
  // register-interner memos and a cold allocator arena, and at farm batch
  // rates (thousands per minute) that re-warming made 8 workers SLOWER than
  // one. Parked persistent workers keep per-thread state hot across batches.
  ResidentPool pool(opts.workers);

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  double next_soak = opts.soak_interval_s;
  std::size_t rr = 0;  ///< round-robin cursor over targets

  const auto emit_soak = [&](const std::string& mode) {
    if (!opts.on_soak) return;
    FarmStats snap = stats;
    snap.elapsed_s = elapsed();
    snap.corpus_size = corpus.size();
    snap.corpus_aliases = corpus.alias_count();
    snap.targets.clear();
    for (const auto& s : states) snap.targets.push_back(s.stats);
    opts.on_soak(farm_json(snap, opts, mode));
  };

  for (;;) {
    // Stop conditions hold only at batch boundaries: the in-flight batch
    // always completes and its findings are processed (graceful drain).
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      stats.drained = true;
      break;
    }
    if (opts.duration_s > 0 && elapsed() >= opts.duration_s) break;
    if (opts.max_plans > 0 && stats.plans >= opts.max_plans) break;

    // Phase 1 (sequential): build the batch. External submissions first,
    // then round-robin seeded/mutated plans. All nondeterminism is derived
    // from plan_seed, so a farm re-run with the same seed and no external
    // source replays the exact same plan stream.
    const int want = opts.max_plans > 0
                         ? static_cast<int>(std::min<std::int64_t>(
                               opts.batch, opts.max_plans - stats.plans))
                         : opts.batch;
    std::vector<Slot> batch;
    batch.reserve(static_cast<std::size_t>(want));
    while (opts.source != nullptr && static_cast<int>(batch.size()) < want) {
      auto sub = opts.source->poll();
      if (!sub) break;
      int ti = -1;
      for (std::size_t t = 0; t < states.size(); ++t) {
        if (states[t].target->name == sub->first) { ti = static_cast<int>(t); break; }
      }
      if (ti < 0) continue;  // unknown target name: drop the submission
      Slot s;
      s.target = ti;
      s.plan = std::move(sub->second);
      s.plan_seed = campaign_plan_seed(opts.seed ^ 0xE7F4A5C3D2B1906FULL,
                                       states[static_cast<std::size_t>(ti)].target->name,
                                       states[static_cast<std::size_t>(ti)].external_index++);
      s.external = true;
      batch.push_back(std::move(s));
    }
    while (static_cast<int>(batch.size()) < want) {
      const auto ti = rr++ % states.size();
      TargetState& ts = states[ti];
      Slot s;
      s.target = static_cast<int>(ti);
      s.plan_seed = campaign_plan_seed(opts.seed, ts.target->name, ts.next_index++);
      // Deterministic search-move choice: mostly fresh samples, with mutation
      // and splice moves drawn from the novel-coverage pool when available.
      const std::uint64_t move = s.plan_seed >> 56;
      if (opts.mutate && !ts.pool.empty() && move % 4 == 1) {
        const auto pi = static_cast<std::size_t>((s.plan_seed >> 8) % ts.pool.size());
        s.plan = ts.pool[pi].mutate(s.plan_seed, ts.target->space);
        s.mutated = true;
      } else if (opts.mutate && ts.pool.size() >= 2 && move % 8 == 2) {
        const auto pa = static_cast<std::size_t>((s.plan_seed >> 8) % ts.pool.size());
        const auto pb = static_cast<std::size_t>((s.plan_seed >> 20) % (ts.pool.size() - 1));
        s.plan = FaultPlan::splice(ts.pool[pa], ts.pool[pb + (pb >= pa ? 1 : 0)],
                                   s.plan_seed, ts.target->space);
        s.mutated = true;
      } else {
        s.plan = FaultPlan::sample(s.plan_seed, ts.target->space);
      }
      batch.push_back(std::move(s));
    }
    if (batch.empty()) break;

    // Phase 2 (parallel): run the batch on the work-stealing pool. run_plan
    // is pure in its arguments, so verdicts are byte-identical to the
    // one-shot runner's regardless of worker count or steal order.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(batch.size());
    for (auto& s : batch) {
      tasks.emplace_back([&s, &states, &opts] {
        const TargetState& ts = states[static_cast<std::size_t>(s.target)];
        s.out = run_plan(*ts.target, s.plan, s.plan_seed, opts.monitors);
      });
    }
    pool.run(std::move(tasks));
    ++stats.batches;

    // Phase 3a (sequential): decide which findings need a shrink — safety
    // violations whose raw tape key is known neither to the corpus nor to an
    // earlier slot of THIS batch. Phase 3b then runs the shrinks on the pool
    // (ddmin is pure in (scenario, tape)), so the expensive part of finding
    // classification parallelizes too; 3c consumes the results in slot
    // order, which keeps every corpus decision deterministic.
    {
      std::unordered_set<std::uint64_t> claimed;
      std::vector<Slot*> to_shrink;
      for (auto& s : batch) {
        if (!s.out.violated()) continue;
        s.raw_key = corpus_key(s.out.tape);
        if (opts.shrink && s.out.safety && !corpus.contains(s.raw_key) &&
            claimed.insert(s.raw_key).second) {
          to_shrink.push_back(&s);
        }
      }
      std::vector<std::function<void()>> shrinks;
      shrinks.reserve(to_shrink.size());
      for (Slot* s : to_shrink) {
        const CampaignTarget* tgt = states[static_cast<std::size_t>(s->target)].target;
        shrinks.emplace_back(
            [s, tgt] { s->shrunk = shrink_finding(tgt->scenario, s->out.tape); });
      }
      pool.run(std::move(shrinks));
    }

    // Phase 3c (sequential, slot order): counters, coverage pool, corpus
    // classification.
    for (auto& s : batch) {
      TargetState& ts = states[static_cast<std::size_t>(s.target)];
      ++stats.plans;
      ++ts.stats.plans;
      stats.total_steps += s.out.steps;
      ts.stats.total_steps += s.out.steps;
      ts.stats.starvation_observations += s.out.starvation_observations;
      if (s.mutated) { ++stats.mutated; ++ts.stats.mutated; }
      if (s.external) { ++stats.external; ++ts.stats.external; }
      if (ts.sigs.insert(s.out.coverage_sig).second) {
        ++stats.coverage_sigs;
        ++ts.stats.coverage_sigs;
        if (opts.mutate) ts.remember(s.plan);
      }
      if (!s.out.violated()) {
        ++stats.clean;
        ++ts.stats.clean;
        continue;
      }
      ++stats.violations;
      if (s.out.safety) ++ts.stats.safety_violations;
      if (s.out.wait_free_bad) ++ts.stats.wait_free_violations;

      if (corpus.contains(s.raw_key)) {
        ++stats.duplicates;
        ++ts.stats.duplicates;
        continue;
      }
      const std::string stem =
          ts.target->name + "_s" + std::to_string(opts.seed) + "_" + std::to_string(s.plan_seed);
      if (s.shrunk) {
        const ShrunkFinding& sf = *s.shrunk;
        ++stats.shrunk;
        if (sf.replay_ok) ++stats.shrink_replays_ok;
        const std::uint64_t mini_key = corpus_key(sf.mini);
        if (corpus.contains(mini_key)) {
          // A different plan shrank onto a known minimal tape: duplicate.
          // The raw alias makes the NEXT exact rediscovery skip the shrink.
          ++stats.duplicates;
          ++ts.stats.duplicates;
          corpus.add_alias(s.raw_key, mini_key);
          continue;
        }
        corpus.insert(mini_key, sf.mini, stem);
        corpus.add_alias(s.raw_key, mini_key);
      } else if (opts.shrink && s.out.safety) {
        // An earlier slot of this batch claimed the same raw key and shrank
        // it; that slot's corpus decision already covers this finding.
        ++stats.duplicates;
        ++ts.stats.duplicates;
        continue;
      } else {
        // Wait-freedom-only findings have no tape-level shrink oracle: the
        // raw tape is the canonical corpus entry.
        corpus.insert(s.raw_key, s.out.tape, stem);
      }
      ++stats.novel;
      ++ts.stats.novel;
    }

    if (opts.soak_interval_s > 0 && elapsed() >= next_soak) {
      emit_soak("soak");
      next_soak = elapsed() + opts.soak_interval_s;
    }
  }

  stats.elapsed_s = elapsed();
  stats.corpus_size = corpus.size();
  stats.corpus_aliases = corpus.alias_count();
  for (const auto& s : states) stats.targets.push_back(s.stats);
  emit_soak("final");
  return stats;
}

telemetry::Json farm_json(const FarmStats& stats, const FarmOptions& opts,
                          const std::string& mode) {
  using telemetry::Json;
  Json doc = Json::object();
  doc["schema"] = Json("efd-campaign-farm-v1");
  doc["experiment"] = Json("campaign-farm");
  doc["git"] = Json(telemetry::git_describe());
  doc["mode"] = Json(mode);
  doc["seed"] = Json(static_cast<std::int64_t>(opts.seed));
  doc["workers"] = Json(opts.workers);
  doc["batch"] = Json(opts.batch);
  doc["monitors"] = Json(opts.monitors);
  doc["shrink"] = Json(opts.shrink);
  doc["mutate"] = Json(opts.mutate);
  doc["elapsed_s"] = Json(stats.elapsed_s);
  doc["plans"] = Json(stats.plans);
  doc["plans_per_s"] = Json(stats.elapsed_s > 0 ? static_cast<double>(stats.plans) / stats.elapsed_s
                                                : 0.0);
  doc["clean"] = Json(stats.clean);
  doc["violations"] = Json(stats.violations);
  doc["novel"] = Json(stats.novel);
  doc["duplicates"] = Json(stats.duplicates);
  doc["shrunk"] = Json(stats.shrunk);
  doc["shrink_replays_ok"] = Json(stats.shrink_replays_ok);
  doc["mutated"] = Json(stats.mutated);
  doc["external"] = Json(stats.external);
  doc["coverage_sigs"] = Json(stats.coverage_sigs);
  doc["total_steps"] = Json(stats.total_steps);
  doc["batches"] = Json(stats.batches);
  doc["drained"] = Json(stats.drained);
  Json corpus = Json::object();
  corpus["dir"] = Json(opts.corpus_dir);
  corpus["size"] = Json(static_cast<std::int64_t>(stats.corpus_size));
  corpus["aliases"] = Json(static_cast<std::int64_t>(stats.corpus_aliases));
  corpus["seeded"] = Json(stats.corpus_seeded);
  corpus["quarantined"] = Json(stats.quarantined);
  doc["corpus"] = std::move(corpus);
  Json targets = Json::array();
  for (const auto& t : stats.targets) {
    Json e = Json::object();
    e["target"] = Json(t.target);
    e["expect_clean"] = Json(t.expect_clean);
    e["plans"] = Json(t.plans);
    e["clean"] = Json(t.clean);
    e["safety_violations"] = Json(t.safety_violations);
    e["wait_free_violations"] = Json(t.wait_free_violations);
    e["novel"] = Json(t.novel);
    e["duplicates"] = Json(t.duplicates);
    e["starvation_observations"] = Json(t.starvation_observations);
    e["coverage_sigs"] = Json(t.coverage_sigs);
    e["mutated"] = Json(t.mutated);
    e["external"] = Json(t.external);
    e["total_steps"] = Json(t.total_steps);
    targets.push_back(std::move(e));
  }
  doc["targets"] = std::move(targets);
  return doc;
}

telemetry::Json campaign_json(const std::vector<CampaignRun>& runs, const CampaignOptions& opts) {
  using telemetry::Json;
  Json doc = Json::object();
  doc["schema"] = Json("efd-campaign-v1");
  doc["experiment"] = Json("campaign");
  doc["git"] = Json(telemetry::git_describe());
  doc["seed"] = Json(static_cast<std::int64_t>(opts.seed));
  doc["plans_per_target"] = Json(opts.plans);
  doc["monitors"] = Json(opts.monitors);
  Json targets = Json::array();
  for (const auto& r : runs) {
    Json t = Json::object();
    t["target"] = Json(r.target);
    t["scenario"] = Json(r.scenario);
    t["algorithm"] = Json(r.algorithm);
    t["expect_clean"] = Json(r.expect_clean);
    t["verdict_ok"] = Json(r.verdict_ok());
    t["plans"] = Json(r.plans);
    t["clean_plans"] = Json(r.clean_plans);
    t["violations"] = Json(static_cast<std::int64_t>(r.violations.size()));
    t["safety_violations"] = Json(r.safety_violations());
    t["wait_free_violations"] = Json(r.wait_free_violations());
    t["starvation_observations"] = Json(r.starvation_observations);
    Json mix = Json::object();
    mix["fd_fault"] = Json(r.plans_with_fd_fault);
    mix["storm"] = Json(r.plans_with_storm);
    mix["trigger"] = Json(r.plans_with_trigger);
    mix["burst"] = Json(r.plans_with_burst);
    mix["link"] = Json(r.plans_with_link);
    t["plan_mix"] = std::move(mix);
    t["total_steps"] = Json(r.total_steps);
    t["rehearsal_steps"] = Json(r.rehearsal_steps);
    t["monitored_steps"] = Json(r.monitored_steps);
    t["max_own_steps_to_decide"] = Json(r.max_own_steps_to_decide);
    Json viols = Json::array();
    for (const auto& v : r.violations) {
      Json e = Json::object();
      e["plan_seed"] = Json(static_cast<std::int64_t>(v.plan_seed));
      e["plan"] = Json(v.plan);
      e["safety"] = Json(v.safety);
      e["wait_free"] = Json(v.wait_free);
      e["detail"] = Json(v.detail);
      e["tape_steps"] = Json(v.tape_steps);
      e["shrunk_steps"] = Json(v.shrunk_steps);
      e["shrunk_replay_ok"] = Json(v.shrunk_replay_ok);
      e["tape"] = Json(v.tape_path);
      viols.push_back(std::move(e));
    }
    t["violation_list"] = std::move(viols);
    targets.push_back(std::move(t));
  }
  doc["targets"] = std::move(targets);
  return doc;
}

}  // namespace efd
