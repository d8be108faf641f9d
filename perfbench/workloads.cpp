// The four benchmark workloads (README.md explains why each was chosen):
//
//   sweep         (7,2)-set-agreement, generic 1-concurrent solver, level 2,
//                 plain in-memory store: 1 thread, then P threads
//   sweep_tiered  the same sweep through the tiered store (4 MiB budget +
//                 disk tier spilling into a private scratch dir): P threads
//                 once, then 1 thread every repetition
//   hierarchy     classify_standard_menu(n=4, 5,000,000 states): 1, then P
//   farm          run_farm over all campaign targets (40,000 plans, P
//                 workers, in-memory corpus, pinned campaign), then a
//                 sequential triage of the seed's violating plans:
//                 record -> shrink_finding -> replay
//
// Every operation's output is checked (pinned values at the default seed,
// thread-count and store-shape invariance at every seed). The untraced run
// reports the end-to-end metrics; the traced run reports per-layer metrics,
// taken from the workload itself where it exercises a layer family and from
// a small fixed probe instance of that family otherwise, so every workload
// reports the same metric set.
#include <array>
#include <cinttypes>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/campaign.hpp"
#include "core/hierarchy.hpp"
#include "core/repro_scenarios.hpp"
#include "core/shrink.hpp"
#include "core/solvability.hpp"
#include "perfbench.hpp"
#include "tasks/set_agreement.hpp"

namespace perfbench {
namespace {

using namespace efd;

// Pinned values hold at this seed; other seeds get the verdict-class checks.
constexpr std::uint64_t kPinnedSeed = 42;

constexpr std::int64_t kSweepStates = 9712941;
constexpr std::int64_t kSweepTerminal = 147695;
constexpr std::int64_t kSweepUnique = 5216741;
constexpr std::size_t kTieredBudget = 4u << 20;

constexpr int kHierarchyN = 4;
constexpr std::int64_t kHierarchyBudget = 5000000;
constexpr std::int64_t kHierarchyStates = 7722700;
constexpr const char* kHierarchyTable =
    "task                                 | level | weakest FD            | violation at level+1\n"
    "-------------------------------------+-------+-----------------------+---------------------\n"
    "identity[n=4]                        |   4   | trivial (wait-free)   | -  [wait-free: needs no advice (Prop. 2)]\n"
    "consensus[n=4]                       |   1   | Omega (= antiOmega-1) | task relation violated\n"
    "(Pi,2)-set-agreement[n=4]            |   2   | antiOmega-2           | task relation violated\n"
    "(Pi,3)-set-agreement[n=4]            |   3   | antiOmega-3           | task relation violated\n"
    "(2,2)-renaming[n=4]                  |   1   | Omega (= antiOmega-1) | task relation violated  [strong renaming == consensus (Cor. 13)]\n"
    "(3,4)-renaming[n=4]                  |   2   | antiOmega-2           | task relation violated  [exact maximal level open for some (j,k) (paper fn. 4)]\n"
    "participating-set[n=4]               |   1+  | Omega (= antiOmega-1) | -  [budget hit at level 2; observed level is a certified lower bound; wait-free via one-shot immediate snapshot]\n"
    "weak-symmetry-breaking[n=4]          |   1   | Omega (= antiOmega-1) | task relation violated  [level of the generic solver; the task's own class is open here]\n";

// The farm phase always runs the pinned campaign: with coverage-guided
// mutation a seed can snowball into a cluster of expensive findings (one
// seed gave 214 mpfm_raw violations instead of ~20 and a 2.5x slower farm),
// so a seeded farm would measure the seed rather than the code. --seed
// drives the triage phase's plan streams instead.
constexpr std::uint64_t kFarmSeed = kPinnedSeed;
constexpr std::int64_t kFarmPlans = 40000;
constexpr std::int64_t kFarmClean = 31208;
constexpr std::int64_t kFarmViolations = 8792;
constexpr std::int64_t kFarmNovel = 1558;
constexpr int kTriageFindings = 2000;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

/// Runs repetitions rep(1), rep(2), ... until the budget is spent: always at
/// least one, and never one predicted to overrun it. The prediction is the
/// slowest repetition after the first (the first may do extra work).
void repeat_for(double seconds, const std::function<void(int)>& rep) {
  const double t0 = wall_now();
  double first = 0;
  double later = 0;
  for (int i = 1;; ++i) {
    const double a = wall_now();
    rep(i);
    const double d = wall_now() - a;
    if (i == 1) {
      first = d;
    } else {
      later = std::max(later, d);
    }
    if (wall_now() - t0 + (later > 0 ? later : first) > seconds) break;
  }
}

/// Median of `times` executions of `setup`, each reference-scaled by the
/// reference timed right before and right after it: host speed drifts even
/// within a run's set-up phase (README.md, "Noise"). Unscaled figures go to
/// `res` as a note.
double timed_setup(int times, const std::function<void()>& setup, Result& res) {
  std::vector<double> raw;
  std::vector<double> scaled;
  std::vector<double> refs = {reference_s()};
  for (std::size_t i = 0; i < static_cast<std::size_t>(times); ++i) {
    const double a = wall_now();
    setup();
    raw.push_back(wall_now() - a);
    refs.push_back(reference_s());
    scaled.push_back(raw.back() / reference_scale(0.5 * (refs[i] + refs[i + 1])));
  }
  res.note(fmt("setup: median %.4f s of %d, median reference %.4f s", median(raw), times,
               median(refs)));
  return median(scaled);
}

// ---------------------------------------------------------------------------
// Instrumentation for traced runs: wrappers around public extension points.
// ---------------------------------------------------------------------------

/// Delegates to the real task and counts relation() calls (1-thread sweeps).
class CountingTask final : public Task {
 public:
  explicit CountingTask(TaskPtr inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int n_procs() const override { return inner_->n_procs(); }
  [[nodiscard]] bool input_ok(const ValueVec& in) const override { return inner_->input_ok(in); }
  [[nodiscard]] bool relation(const ValueVec& in, const ValueVec& out) const override {
    ++calls_;
    return inner_->relation(in, out);
  }
  [[nodiscard]] Value pick_output(const ValueVec& in, const ValueVec& out, int i) const override {
    return inner_->pick_output(in, out, i);
  }
  [[nodiscard]] bool colorless() const override { return inner_->colorless(); }
  [[nodiscard]] ValueVec sample_input(std::uint64_t seed) const override {
    return inner_->sample_input(seed);
  }
  [[nodiscard]] std::int64_t calls() const { return calls_; }

 private:
  TaskPtr inner_;
  mutable std::int64_t calls_ = 0;
};

/// Counts executed steps by operation kind (ExploreConfig::observer).
class StepCounter final : public StepObserver {
 public:
  void on_step(Pid, OpKind op, bool, bool, bool) override {
    ++steps;
    ++by_op[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::int64_t of(OpKind op) const { return by_op[static_cast<std::size_t>(op)]; }

  std::int64_t steps = 0;
  std::array<std::int64_t, 8> by_op{};
};

// ---------------------------------------------------------------------------
// Exploration sweeps
// ---------------------------------------------------------------------------

struct SweepSpec {
  int n = 7;
  int set_k = 2;
  int level = 2;
  std::int64_t max_states = 20000000;
  bool tiered = false;
  std::size_t budget = kTieredBudget;
};

struct Sweep {
  SweepSpec spec;
  TaskPtr task;
  ValueVec inputs;
  std::function<ProcBody(int, Value)> body;
  std::string spill_root;
};

/// Distinct inputs: 0..n-1 at the pinned seed, distinct seeded values
/// otherwise (the solver only compares inputs, so the tree shape is kept).
ValueVec sweep_inputs(int n, std::uint64_t seed) {
  ValueVec in(static_cast<std::size_t>(n));
  std::uint64_t s = seed;
  std::int64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v = seed == kPinnedSeed ? i : v + 1 + static_cast<std::int64_t>(mix(s++) % 1000);
    in[static_cast<std::size_t>(i)] = Value(v);
  }
  if (seed != kPinnedSeed) {  // deterministic shuffle: values are not index-ordered
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(mix(s++) % static_cast<std::uint64_t>(i + 1));
      std::swap(in[static_cast<std::size_t>(i)], in[j]);
    }
  }
  return in;
}

Sweep make_sweep(const SweepSpec& spec, std::uint64_t seed, const std::string& tmp) {
  Sweep s;
  s.spec = spec;
  s.task = std::make_shared<SetAgreementTask>(spec.n, spec.set_k);
  s.inputs = sweep_inputs(spec.n, seed);
  const TaskPtr task = s.task;
  s.body = [task](int, Value input) { return make_one_concurrent(task, input, "perfbench"); };
  s.spill_root = tmp + "/spill";
  std::filesystem::create_directories(s.spill_root);
  return s;
}

ExploreConfig sweep_cfg(const Sweep& s, int threads) {
  ExploreConfig cfg;
  cfg.k = s.spec.level;
  for (int i = 0; i < s.spec.n; ++i) cfg.arrival.push_back(i);
  cfg.max_states = s.spec.max_states;
  cfg.threads = threads;
  cfg.dedup_store = DedupConfig{};  // never inherit EFD_DEDUP_* from the environment
  if (s.spec.tiered) {
    cfg.dedup_store.disk_tier = true;
    cfg.dedup_store.mem_budget_bytes = s.spec.budget;
    cfg.dedup_store.spill_dir = s.spill_root;
  }
  return cfg;
}

struct TimedSweep {
  ExploreOutcome o;
  double wall = 0;
  double cpu = 0;
};

TimedSweep run_sweep(const Sweep& s, const ExploreConfig& cfg, const TaskPtr& task) {
  TimedSweep t;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  t.o = explore_k_concurrent(task, s.body, s.inputs, cfg);
  t.cpu = cpu_now() - c0;
  t.wall = wall_now() - w0;
  return t;
}

TimedSweep run_sweep(const Sweep& s, int threads) {
  return run_sweep(s, sweep_cfg(s, threads), s.task);
}

/// Checks one sweep: clean and covered, identical semantic counters to the
/// reference sweep (the run's first 1-thread sweep), pinned counters at the
/// pinned seed, and an empty spill root afterwards.
void check_sweep(Result& res, const Sweep& s, const ExploreOutcome& o, const ExploreOutcome* ref,
                 bool pinned, const std::string& label) {
  std::string why;
  if (!o.ok) why += " violation: " + o.violation + ";";
  if (o.budget_exhausted) why += " budget exhausted;";
  if (ref != nullptr && (o.states != ref->states || o.terminal_runs != ref->terminal_runs ||
                         o.stats.dedup_misses != ref->stats.dedup_misses ||
                         o.stats.dedup_queries != ref->stats.dedup_queries)) {
    why += " counters differ from the reference sweep;";
  }
  if (pinned && (o.states != kSweepStates || o.terminal_runs != kSweepTerminal ||
                 o.stats.dedup_misses != kSweepUnique)) {
    why += fmt(" pinned counters: got %" PRId64 "/%" PRId64 "/%" PRId64 ";", o.states,
               o.terminal_runs, o.stats.dedup_misses);
  }
  if (!dir_empty(s.spill_root)) why += " spill root not empty afterwards;";
  res.check(why.empty(), label + ":" + why);
}

/// The exploration family of a traced run: an untraced 1-thread sweep, the
/// same sweep with step/relation/allocation counting, and a P-thread sweep.
struct ExploreTrace {
  TimedSweep plain;
  TimedSweep traced;
  TimedSweep par;
  StepCounter steps;
  std::int64_t relation_calls = 0;
  std::uint64_t allocs = 0;
  int threads = 1;
  bool tiered = false;
};

ExploreTrace trace_sweep(const Sweep& s, int threads, Result& res, const std::string& label) {
  ExploreTrace t;
  t.threads = threads;
  t.tiered = s.spec.tiered;
  t.plain = run_sweep(s, 1);
  check_sweep(res, s, t.plain.o, nullptr, false, label + " x1");

  const auto counting = std::make_shared<CountingTask>(s.task);
  ExploreConfig cfg = sweep_cfg(s, 1);
  cfg.observer = &t.steps;
  const std::uint64_t a0 = alloc_count();
  set_alloc_counting(true);
  t.traced = run_sweep(s, cfg, counting);
  set_alloc_counting(false);
  t.allocs = alloc_count() - a0;
  t.relation_calls = counting->calls();
  check_sweep(res, s, t.traced.o, &t.plain.o, false, label + " x1 traced");

  t.par = run_sweep(s, threads);
  check_sweep(res, s, t.par.o, &t.plain.o, false, label + fmt(" x%d", threads));
  return t;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// explore.* metrics and the stage accounting.
void explore_metrics(const ExploreTrace& t, const LayerCosts& c, Result& res) {
  const ExploreStats& st = t.plain.o.stats;
  const auto states = static_cast<double>(t.plain.o.states);
  const double ns_per_state = t.plain.wall * 1e9 / states;
  res.add("explore.ns_per_state", ns_per_state, "ns");
  res.add("explore.dedup_hit_ratio", ratio(static_cast<double>(st.dedup_hits),
                                           static_cast<double>(st.dedup_queries)), "ratio");
  res.add("explore.ghost_hit_ratio",
          ratio(static_cast<double>(st.ghost_hits),
                static_cast<double>(st.ghost_hits + st.respawns)),
          "ratio");
  res.add("explore.respawns_per_kstate", 1000.0 * static_cast<double>(st.respawns) / states,
          "count");
  res.add("explore.redelivers_per_state", static_cast<double>(st.redelivers) / states, "count");
  res.add("explore.max_undo_depth", static_cast<double>(st.max_undo_depth), "count");
  res.add("explore.allocs_per_state", static_cast<double>(t.allocs) / states, "count");
  res.add("explore.pool_steals", static_cast<double>(t.par.o.stats.pool_steals), "count");
  res.add("explore.par_cpu_util", ratio(t.par.cpu, t.par.wall * t.threads), "ratio");

  // Stage model: each stage's unit cost (layer probes) times its count per
  // state (ExploreStats + the traced sweep's step/relation counters).
  const ExploreStats& tr = t.traced.o.stats;
  const auto ghosts = static_cast<double>(tr.ghost_hits);
  const double real_steps = static_cast<double>(t.steps.steps) - ghosts;
  const auto writes = static_cast<double>(t.steps.of(OpKind::kWrite));
  const auto reads = static_cast<double>(t.steps.of(OpKind::kRead));
  const auto queries = static_cast<double>(tr.dedup_queries);
  const double insert_ns = t.tiered ? c.diskset_insert_ns : c.flat_insert_ns;
  struct Stage {
    const char* name;
    double ns;
  };
  const Stage stages[] = {
      {"resume", (real_steps + static_cast<double>(tr.redelivers)) * c.resume_ns +
                     static_cast<double>(tr.respawns) * c.step_ns},
      {"apply", writes * c.write_ns + reads * c.read_ns},
      {"fold", queries * c.fold_ns},
      {"insert", queries * insert_ns},
      {"relation", static_cast<double>(t.relation_calls) * c.relation_ns},
      {"undo", writes * c.undo_write_ns},
  };
  double model = 0;
  const Stage* largest = &stages[0];
  std::string parts;
  for (const Stage& s : stages) {
    model += s.ns;
    if (s.ns > largest->ns) largest = &s;
    parts += fmt(" %s=%.1f", s.name, s.ns / states);
  }
  const double acct = ratio(model / states, ns_per_state);
  res.add("explore.accounting_ratio", acct, "ratio");
  res.note(fmt("accounting (ns/state):%s | model %.1f vs measured %.1f, ratio %.3f", parts.c_str(),
               model / states, ns_per_state, acct));
  res.note(fmt("accounting counts: steps=%" PRId64 " ghost=%" PRId64 " writes=%.0f reads=%.0f "
               "queries=%.0f relation=%" PRId64 " respawns=%" PRId64 " redelivers=%" PRId64
               " states=%" PRId64,
               t.steps.steps, tr.ghost_hits, writes, reads, queries, t.relation_calls, tr.respawns,
               tr.redelivers, t.traced.o.states));
  if (acct < 0.85) {
    res.note("accounting does not close (<0.85): the model lacks the DFS bookkeeping stage "
             "(undo-log push/pop, admission-window refresh, pending-op lookup, ghost log, "
             "per-process signature chains)");
  } else if (acct > 1.15) {
    res.note(fmt("accounting does not close (>1.15): stage '%s' costs less in the sweep than "
                 "in its isolated probe",
                 largest->name));
  }
}

void overhead_metric(double traced_s, double plain_s, Result& res) {
  res.add("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%");
  res.note(fmt("tracing overhead: traced %.4f s vs untraced %.4f s", traced_s, plain_s));
}

void diskset_metrics(const ExploreStats& st, Result& res) {
  const auto hits = static_cast<double>(st.dedup_hits);
  res.add("diskset.recent_hit_share", ratio(static_cast<double>(st.dedup_recent_hits), hits),
          "ratio");
  res.add("diskset.mem_hit_share", ratio(static_cast<double>(st.dedup_mem_hits), hits), "ratio");
  res.add("diskset.cold_hit_share", ratio(static_cast<double>(st.dedup_cold_hits), hits), "ratio");
  res.add("diskset.bloom_skip_rate",
          ratio(static_cast<double>(st.dedup_bloom_skips),
                static_cast<double>(st.dedup_cold_probes)),
          "ratio");
  res.add("diskset.spills", static_cast<double>(st.dedup_spills), "count");
  res.add("diskset.spill_bytes", static_cast<double>(st.dedup_spill_bytes), "bytes");
  res.add("diskset.merges", static_cast<double>(st.dedup_merges), "count");
}

/// Small fixed instance of the exploration family (E14's (5,2) level-2 sweep).
SweepSpec probe_sweep_spec(bool tiered) {
  SweepSpec p;
  p.n = 5;
  p.max_states = 400000;
  p.tiered = tiered;
  p.budget = 1u << 20;
  return p;
}

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

struct TimedClassify {
  std::vector<HierarchyRow> rows;
  double wall = 0;
  double cpu = 0;
};

TimedClassify run_classify(int n, std::int64_t budget, int threads) {
  TimedClassify t;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  t.rows = classify_standard_menu(n, budget, threads);
  t.cpu = cpu_now() - c0;
  t.wall = wall_now() - w0;
  return t;
}

std::int64_t classify_states(const TimedClassify& t) {
  std::int64_t s = 0;
  for (const HierarchyRow& r : t.rows) s += r.states_explored;
  return s;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string l; std::getline(is, l);) out.push_back(l);
  return out;
}

/// One checked operation per table row: byte-identical to the pinned row.
void check_hierarchy(Result& res, const TimedClassify& t, const std::string& label) {
  const std::vector<std::string> got = lines_of(format_hierarchy(t.rows));
  const std::vector<std::string> want = lines_of(kHierarchyTable);
  const std::size_t rows = want.size() - 2;
  std::int64_t bad = 0;
  std::string first;
  for (std::size_t i = 2; i < want.size(); ++i) {
    if (i < got.size() && got[i] == want[i]) continue;
    ++bad;
    if (first.empty()) first = i < got.size() ? got[i] : "(missing row)";
  }
  if (got.size() != want.size()) ++bad;
  res.check_many(static_cast<std::int64_t>(rows), bad,
                 label + " rows differ from the pinned table, first: " + first);
}

void hierarchy_metrics(const TimedClassify& t, Result& res) {
  double violating = 0;
  double clean = 0;
  double exhausted = 0;
  for (const HierarchyRow& r : t.rows) {
    if (r.level_exhausted) {
      exhausted += r.stats.elapsed_s;
    } else if (!r.violation.empty()) {
      violating += r.stats.elapsed_s;
    } else {
      clean += r.stats.elapsed_s;
    }
  }
  res.add("hierarchy.violating_rows_s", violating, "s");
  res.add("hierarchy.clean_rows_s", clean, "s");
  res.add("hierarchy.exhausted_rows_s", exhausted, "s");
}

// ---------------------------------------------------------------------------
// Farm and triage
// ---------------------------------------------------------------------------

std::vector<const CampaignTarget*> all_targets() {
  std::vector<const CampaignTarget*> out;
  for (const CampaignTarget& t : campaign_targets()) out.push_back(&t);
  return out;
}

struct TimedFarm {
  FarmStats stats;
  double wall = 0;
  double cpu = 0;
};

TimedFarm run_farm_once(std::uint64_t seed, std::int64_t plans, int workers) {
  FarmOptions fo;
  fo.seed = seed;
  fo.workers = workers;
  fo.max_plans = plans;
  fo.soak_interval_s = 0;  // no soak records; corpus_dir "" keeps the corpus in memory
  TimedFarm t;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  t.stats = run_farm(all_targets(), fo);
  t.cpu = cpu_now() - c0;
  t.wall = wall_now() - w0;
  return t;
}

/// Per-plan checks: clean targets never violate, every shrunk finding
/// double-replays, consistent totals, the pinned totals when `pinned`, and
/// identical stats across repetitions (`ref`).
void check_farm(Result& res, const TimedFarm& t, std::int64_t plans, bool pinned,
                const FarmStats* ref) {
  const FarmStats& s = t.stats;
  std::int64_t bad = 0;
  std::string why;
  for (const FarmTargetStats& ts : s.targets) {
    if (ts.expect_clean && ts.safety_violations + ts.wait_free_violations > 0) {
      bad += ts.safety_violations + ts.wait_free_violations;
      why += " clean target " + ts.target + " violated;";
    }
  }
  if (s.shrunk != s.shrink_replays_ok) {
    bad += s.shrunk - s.shrink_replays_ok;
    why += " shrunk tapes failing double replay;";
  }
  if (s.plans != plans || s.clean + s.violations != s.plans) {
    ++bad;
    why += " plan totals inconsistent;";
  }
  if (pinned &&
      (s.clean != kFarmClean || s.violations != kFarmViolations || s.novel != kFarmNovel)) {
    ++bad;
    why += fmt(" pinned totals: got clean=%" PRId64 " violations=%" PRId64 " novel=%" PRId64 ";",
               s.clean, s.violations, s.novel);
  }
  if (ref != nullptr && (s.clean != ref->clean || s.violations != ref->violations ||
                         s.novel != ref->novel || s.total_steps != ref->total_steps)) {
    ++bad;
    why += " totals differ between repetitions;";
  }
  res.check_many(s.plans, std::min(bad, std::max<std::int64_t>(s.plans, 1)), "farm:" + why);
}

struct Triage {
  std::vector<double> ms;         ///< record + shrink + replay, per finding
  std::vector<double> shrink_ms;
  std::vector<double> replay_us;
  std::int64_t candidates = 0;
  double wall = 0;
  std::int64_t predicate_calls = 0;  ///< traced: ddmin candidates over `shrink_sampled`
  std::int64_t shrink_sampled = 0;
};

/// Record -> shrink_finding -> replay over the first `want` safety findings
/// of the seeded-bug targets' plan streams. `predicate_sample` findings are
/// additionally shrunk through shrink_tape to count predicate calls.
Triage run_triage(std::uint64_t seed, int want, Result& res, int predicate_sample) {
  Triage t;
  std::vector<const CampaignTarget*> bugs;
  for (const CampaignTarget* c : all_targets()) {
    if (!c->expect_clean) bugs.push_back(c);
  }
  const double t0 = wall_now();
  std::int64_t bad = 0;
  std::int64_t found = 0;
  for (int i = 0; found < want && t.candidates < 50LL * want; ++i) {
    for (const CampaignTarget* c : bugs) {
      if (found >= want) break;
      const std::uint64_t ps = campaign_plan_seed(seed, c->name, i);
      const FaultPlan plan = FaultPlan::sample(ps, c->space);
      const double a = wall_now();
      const PlanOutcome out = run_plan(*c, plan, ps, true);
      const double b = wall_now();
      ++t.candidates;
      if (!out.safety) continue;
      const ShrunkFinding sf = shrink_finding(c->scenario, out.tape);
      const double d = wall_now();
      const ScenarioReplayOutcome rr = replay_in_scenario(*find_scenario(c->scenario), sf.mini);
      const double e = wall_now();
      ++found;
      t.ms.push_back((e - a) * 1e3);
      t.shrink_ms.push_back((d - b) * 1e3);
      t.replay_us.push_back((e - d) * 1e6);
      if (!sf.replay_ok || !rr.matches(sf.mini) || !rr.violated ||
          sf.mini.steps.size() > out.tape.steps.size()) {
        ++bad;
      }
      if (t.shrink_sampled < predicate_sample) {
        ShrinkStats ss;
        (void)shrink_tape(out.tape, scenario_predicate(*find_scenario(c->scenario), true), {}, &ss);
        t.predicate_calls += ss.candidates;
        ++t.shrink_sampled;
      }
    }
  }
  t.wall = wall_now() - t0;
  if (found < want) ++bad;
  res.check_many(std::max<std::int64_t>(found, 1), bad,
                 fmt("triage: %" PRId64 " of %d findings failed shrink/double-replay or were "
                     "missing", bad, want));
  return t;
}

/// campaign.* and farm.* metrics: run_plan timed one plan at a time over the
/// first `per_target` plans of every target, plus the farm's own counters.
void farm_metrics(std::uint64_t seed, int per_target, const TimedFarm& farm, int workers,
                  Result& res) {
  std::vector<double> us;
  for (int i = 0; i < per_target; ++i) {
    for (const CampaignTarget* c : all_targets()) {
      const std::uint64_t ps = campaign_plan_seed(seed, c->name, i);
      const FaultPlan plan = FaultPlan::sample(ps, c->space);
      const double a = wall_now();
      (void)run_plan(*c, plan, ps, true);
      us.push_back((wall_now() - a) * 1e6);
    }
  }
  const FarmStats& s = farm.stats;
  res.add("campaign.run_plan_us_p50", percentile(us, 0.5), "us");
  res.add("campaign.run_plan_us_p99", percentile(us, 0.99), "us");
  res.note(fmt("campaign.run_plan_us percentiles over %zu plans", us.size()));
  res.add("campaign.steps_per_plan",
          ratio(static_cast<double>(s.total_steps), static_cast<double>(s.plans)), "count");
  res.add("farm.worker_util", ratio(farm.cpu, farm.wall * workers), "ratio");
  res.add("farm.novel_ratio",
          ratio(static_cast<double>(s.novel), static_cast<double>(s.violations)), "ratio");
}

void triage_metrics(const Triage& t, Result& res) {
  res.add("shrink.ms_p50", percentile(t.shrink_ms, 0.5), "ms");
  res.add("shrink.predicate_calls", ratio(static_cast<double>(t.predicate_calls),
                                          static_cast<double>(t.shrink_sampled)), "count");
  res.add("replay.us_p50", percentile(t.replay_us, 0.5), "us");
  res.add("triage.ms_p50", percentile(t.ms, 0.5), "ms");
  res.add("triage.ms_p99", percentile(t.ms, 0.99), "ms");
  res.note(fmt("triage percentiles over %zu findings (%" PRId64 " candidate plans)", t.ms.size(),
               t.candidates));
}

// ---------------------------------------------------------------------------
// Probe instances: the per-layer families a workload does not exercise.
// ---------------------------------------------------------------------------

constexpr std::int64_t kProbeHierarchyBudget = 60000;
constexpr std::size_t kProbeHierarchyRows = 6;  // the n=3 menu

void explore_probe(const Options& opt, const LayerCosts& c, Result& res) {
  const Sweep p = make_sweep(probe_sweep_spec(false), opt.seed, opt.tmp);
  explore_metrics(trace_sweep(p, opt.threads, res, "probe sweep"), c, res);
}

void diskset_probe(const Options& opt, Result& res) {
  // (6,2): enough unique signatures for the 1 MiB store to merge runs.
  SweepSpec spec = probe_sweep_spec(true);
  spec.n = 6;
  spec.max_states = 4000000;
  const Sweep p = make_sweep(spec, opt.seed, opt.tmp);
  const TimedSweep t = run_sweep(p, 1);
  check_sweep(res, p, t.o, nullptr, false, "probe tiered sweep");
  diskset_metrics(t.o.stats, res);
}

void hierarchy_probe(Result& res) {
  const TimedClassify t = run_classify(3, kProbeHierarchyBudget, 1);
  res.check(t.rows.size() == kProbeHierarchyRows, "probe hierarchy: row count");
  hierarchy_metrics(t, res);
}

void farm_probe(const Options& opt, Result& res) {
  constexpr std::int64_t kPlans = 2000;
  const TimedFarm f = run_farm_once(opt.seed, kPlans, opt.threads);
  check_farm(res, f, kPlans, false, nullptr);
  farm_metrics(opt.seed, 20, f, opt.threads, res);
  triage_metrics(run_triage(opt.seed, 100, res, 20), res);
}

/// `xp_per_cpu_s`: operations per process CPU-second of the P-thread phase.
/// The P-thread wall rates stay report lines: host CPU steal spread them by
/// up to 47% between runs (README.md, "Noise"), while CPU per operation
/// still catches speed bought by burning cores. `rss_mib`: the process peak
/// after set-up and the FIRST repetition, so the figure does not grow with
/// the number of repetitions a run fits in.
void add_e2e(Result& res, double setup_s, double x1, double xp_per_cpu_s, double rss_mib) {
  res.add("setup_s", setup_s, "s");
  res.add("x1_ops_per_s", x1, "1/s");
  res.add("xp_ops_per_cpu_s", xp_per_cpu_s, "1/s");
  res.add("peak_rss_mb", rss_mib, "MiB");
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Result sweep_workload(const Options& opt, bool tiered) {
  Result res;
  const std::string name = tiered ? "sweep_tiered" : "sweep";
  const bool pinned = opt.seed == kPinnedSeed;
  SweepSpec spec;
  spec.tiered = tiered;
  Sweep s;
  bool warm_ok = true;
  const double setup_s = timed_setup(opt.trace ? 1 : kSetups, [&] {
    s = make_sweep(spec, opt.seed, opt.tmp);
    // Warm-up through the same store kind: interner, frame arenas, allocator.
    // Under the workload's budget the probe does not spill, so set-up times
    // no disk I/O, whose noise the reference kernel cannot track.
    SweepSpec warm_spec = probe_sweep_spec(tiered);
    warm_spec.budget = spec.budget;
    const Sweep warm = make_sweep(warm_spec, opt.seed, opt.tmp);
    const TimedSweep w = run_sweep(warm, 1);
    warm_ok = warm_ok && w.o.ok && !w.o.budget_exhausted && w.o.stats.dedup_spills == 0;
  }, res);
  res.check(warm_ok && dir_empty(s.spill_root), name + " warm-up sweep");

  if (opt.trace) {
    const LayerCosts costs = measure_layers(opt, res);
    const ExploreTrace et = trace_sweep(s, opt.threads, res, name);
    explore_metrics(et, costs, res);
    overhead_metric(et.traced.wall, et.plain.wall, res);
    if (tiered) {
      diskset_metrics(et.plain.o.stats, res);
    } else {
      diskset_probe(opt, res);
    }
    hierarchy_probe(res);
    farm_probe(opt, res);
    add_layer_metrics(costs, res);
    return res;
  }

  std::vector<double> x1;
  std::vector<double> x1_scaled;
  std::vector<double> xp;
  std::vector<double> xp_per_cpu;
  std::vector<double> xp_cpu_s;
  const auto record_par = [&](const TimedSweep& b) {
    const auto sb = static_cast<double>(b.o.states);
    xp.push_back(sb / b.wall);
    xp_per_cpu.push_back(sb / b.cpu);
    xp_cpu_s.push_back(b.cpu);
    return fmt(" | x%d %" PRId64 " states %.4f s wall %.4f s cpu", opt.threads, b.o.states,
               b.wall, b.cpu);
  };
  ExploreOutcome ref;
  double rss = 0;
  // The tiered P-thread sweep runs once, before the repetitions: the 1-thread
  // tiered sweep is this workload's main figure and needs the budget.
  const double t0 = wall_now();
  const TimedSweep par_once = tiered ? run_sweep(s, opt.threads) : TimedSweep{};
  repeat_for(opt.seconds - (wall_now() - t0), [&](int rep) {
    const double ref_before = reference_s();
    const TimedSweep a = run_sweep(s, 1);
    const double ref_s = 0.5 * (ref_before + reference_s());
    check_sweep(res, s, a.o, rep > 1 ? &ref : nullptr, pinned,
                fmt("%s x1 rep %d", name.c_str(), rep));
    if (rep == 1) ref = a.o;
    const auto sa = static_cast<double>(a.o.states);
    x1.push_back(sa / a.wall);
    x1_scaled.push_back(sa / a.wall * reference_scale(ref_s));
    std::string raw = fmt("raw rep %d: x1 %" PRId64 " states %.4f s wall %.4f s cpu, reference "
                          "%.4f s",
                          rep, a.o.states, a.wall, a.cpu, ref_s);
    if (!tiered) {
      const TimedSweep b = run_sweep(s, opt.threads);
      check_sweep(res, s, b.o, &ref, pinned, fmt("%s x%d rep %d", name.c_str(), opt.threads, rep));
      raw += record_par(b);
    }
    if (rep == 1) rss = peak_rss_mib();
    res.note(raw);
  });
  if (tiered) {
    check_sweep(res, s, par_once.o, &ref, pinned, fmt("%s x%d", name.c_str(), opt.threads));
    res.note("raw P-thread sweep (before the repetitions):" + record_par(par_once));
  }
  res.note(fmt("states %" PRId64 ", terminal runs %" PRId64 ", unique signatures %" PRId64
               "%s",
               ref.states, ref.terminal_runs, ref.stats.dedup_misses,
               pinned ? " (pinned)" : " (seed without pinned values: verdict checks only)"));
  if (tiered) {
    res.note(fmt("tiered store: %" PRId64 " spills, %" PRId64 " bytes spilled, %" PRId64
                 " merges (1-thread sweep)",
                 ref.stats.dedup_spills, ref.stats.dedup_spill_bytes, ref.stats.dedup_merges));
  }
  res.note(fmt("states_per_s %.0f 1/s (median of %zu) | states_per_s_par %.0f 1/s | "
               "cpu_s_par %.4f s (medians of %zu)",
               median(x1), x1.size(), median(xp), median(xp_cpu_s), xp.size()));
  add_e2e(res, setup_s, median(x1_scaled), median(xp_per_cpu), rss);
  return res;
}

Result hierarchy_workload(const Options& opt) {
  Result res;
  bool warm_ok = true;
  const double setup_s = timed_setup(opt.trace ? 1 : kSetups, [&] {
    // Warm-up: the n=3 menu runs the same tasks and solvers on small trees.
    const TimedClassify w = run_classify(3, kProbeHierarchyBudget, 1);
    warm_ok = warm_ok && w.rows.size() == kProbeHierarchyRows;
  }, res);
  res.check(warm_ok, "hierarchy warm-up menu");

  if (opt.trace) {
    const LayerCosts costs = measure_layers(opt, res);
    const TimedClassify plain = run_classify(kHierarchyN, kHierarchyBudget, 1);
    check_hierarchy(res, plain, "hierarchy x1");
    set_alloc_counting(true);
    const TimedClassify traced = run_classify(kHierarchyN, kHierarchyBudget, 1);
    set_alloc_counting(false);
    check_hierarchy(res, traced, "hierarchy x1 traced");
    hierarchy_metrics(plain, res);
    overhead_metric(traced.wall, plain.wall, res);
    explore_probe(opt, costs, res);
    diskset_probe(opt, res);
    farm_probe(opt, res);
    add_layer_metrics(costs, res);
    return res;
  }

  std::vector<double> x1;
  std::vector<double> xp_per_cpu;
  std::vector<double> x1_wall;
  std::vector<double> xp_wall;
  double rss = 0;
  repeat_for(opt.seconds, [&](int rep) {
    const double ref_before = reference_s();
    const TimedClassify a = run_classify(kHierarchyN, kHierarchyBudget, 1);
    const double ref_s = 0.5 * (ref_before + reference_s());
    check_hierarchy(res, a, fmt("hierarchy x1 rep %d", rep));
    res.check(classify_states(a) == kHierarchyStates,
              fmt("hierarchy x1 rep %d: %" PRId64 " states, pinned %" PRId64, rep,
                  classify_states(a), kHierarchyStates));
    const TimedClassify b = run_classify(kHierarchyN, kHierarchyBudget, opt.threads);
    check_hierarchy(res, b, fmt("hierarchy x%d rep %d", opt.threads, rep));
    const auto sa = static_cast<double>(classify_states(a));
    const auto sb = static_cast<double>(classify_states(b));
    x1.push_back(sa / a.wall * reference_scale(ref_s));
    xp_per_cpu.push_back(sb / b.cpu);
    x1_wall.push_back(a.wall);
    xp_wall.push_back(b.wall);
    if (rep == 1) rss = peak_rss_mib();
    res.note(fmt("raw rep %d: x1 %.0f states %.4f s wall %.4f s cpu, reference %.4f s | x%d %.0f "
                 "states %.4f s wall %.4f s cpu",
                 rep, sa, a.wall, a.cpu, ref_s, opt.threads, sb, b.wall, b.cpu));
  });
  res.note(fmt("classify_s %.4f s | classify_s_par %.4f s (medians of %zu reps, %zu rows each)",
               median(x1_wall), median(xp_wall), x1_wall.size(),
               lines_of(kHierarchyTable).size() - 2));
  add_e2e(res, setup_s, median(x1), median(xp_per_cpu), rss);
  return res;
}

Result farm_workload(const Options& opt) {
  Result res;
  bool warm_ok = true;
  const double setup_s = timed_setup(opt.trace ? 1 : kSetups, [&] {
    // Warm-up: a short single-worker farm over the same targets.
    Result warm;
    check_farm(warm, run_farm_once(kFarmSeed, 500, 1), 500, false, nullptr);
    warm_ok = warm_ok && warm.failed == 0;
  }, res);
  res.check(warm_ok, "farm warm-up farm");

  if (opt.trace) {
    const LayerCosts costs = measure_layers(opt, res);
    const TimedFarm f = run_farm_once(kFarmSeed, kFarmPlans, opt.threads);
    check_farm(res, f, kFarmPlans, true, nullptr);
    farm_metrics(opt.seed, 200, f, opt.threads, res);
    const Triage plain = run_triage(opt.seed, kTriageFindings, res, 0);
    set_alloc_counting(true);
    const Triage traced = run_triage(opt.seed, kTriageFindings, res, 0);
    set_alloc_counting(false);
    Triage t = plain;
    const Triage sampled = run_triage(opt.seed, 100, res, 100);
    t.predicate_calls = sampled.predicate_calls;
    t.shrink_sampled = sampled.shrink_sampled;
    triage_metrics(t, res);
    overhead_metric(traced.wall, plain.wall, res);
    explore_probe(opt, costs, res);
    diskset_probe(opt, res);
    hierarchy_probe(res);
    add_layer_metrics(costs, res);
    return res;
  }

  std::vector<double> plans_per_s;
  std::vector<double> xp_per_cpu;
  std::vector<double> triage_ms;
  std::vector<double> ref_scale;
  FarmStats ref;
  double rss = 0;
  repeat_for(opt.seconds, [&](int rep) {
    const TimedFarm f = run_farm_once(kFarmSeed, kFarmPlans, opt.threads);
    check_farm(res, f, kFarmPlans, true, rep > 1 ? &ref : nullptr);
    if (rep == 1) ref = f.stats;
    const double ref_before = reference_s();
    const Triage t = run_triage(opt.seed, kTriageFindings, res, 0);
    const double ref_s = 0.5 * (ref_before + reference_s());
    ref_scale.push_back(reference_scale(ref_s));
    const auto plans = static_cast<double>(f.stats.plans);
    plans_per_s.push_back(plans / f.wall);
    xp_per_cpu.push_back(plans / f.cpu);
    triage_ms.insert(triage_ms.end(), t.ms.begin(), t.ms.end());
    if (rep == 1) rss = peak_rss_mib();
    res.note(fmt("raw rep %d: farm %.0f plans %.4f s wall %.4f s cpu | triage %zu findings of "
                 "%" PRId64 " candidates %.4f s wall, reference %.4f s",
                 rep, plans, f.wall, f.cpu, t.ms.size(), t.candidates, t.wall, ref_s));
  });
  res.note(fmt("farm seed %llu: %" PRId64 " plans, %" PRId64 " clean, %" PRId64 " violations, "
               "%" PRId64 " novel, %" PRId64 " shrunk, %" PRId64 " shrink replays ok (pinned)",
               static_cast<unsigned long long>(kFarmSeed), ref.plans, ref.clean, ref.violations,
               ref.novel, ref.shrunk, ref.shrink_replays_ok));
  std::string per_target;
  for (const FarmTargetStats& ts : ref.targets) {
    per_target += fmt(" %s=%" PRId64 "/%" PRId64, ts.target.c_str(), ts.safety_violations,
                      ts.wait_free_violations);
  }
  res.note("safety/wait-free violations per target:" + per_target);
  res.note(fmt("plans_per_s %.1f 1/s (median of %zu reps) | triage_ms_p50 %.4f ms | "
               "triage_ms_p99 %.4f ms (over %zu findings)",
               median(plans_per_s), plans_per_s.size(), percentile(triage_ms, 0.5),
               percentile(triage_ms, 0.99), triage_ms.size()));
  // The triage phase is many short operations with a heavy-tailed cost, so
  // its rate is taken at the median latency (1 / triage_ms_p50).
  add_e2e(res, setup_s, 1e3 / percentile(triage_ms, 0.5) * median(ref_scale),
          median(xp_per_cpu), rss);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep", "sweep_tiered", "hierarchy", "farm"};
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "sweep") return sweep_workload(opt, false);
  if (opt.workload == "sweep_tiered") return sweep_workload(opt, true);
  if (opt.workload == "hierarchy") return hierarchy_workload(opt);
  return farm_workload(opt);
}

}  // namespace perfbench
