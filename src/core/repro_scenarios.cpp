#include "core/repro_scenarios.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "algo/leader_consensus.hpp"
#include "algo/mp_protocols.hpp"
#include "algo/one_concurrent.hpp"
#include "algo/paxos.hpp"
#include "algo/renaming.hpp"
#include "algo/set_agreement_antiomega.hpp"
#include "fd/detectors.hpp"
#include "sim/adversary.hpp"
#include "sim/faultplan.hpp"
#include "sim/memory.hpp"
#include "tasks/consensus.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

// NOTE: every ProcBody below is a lambda that CALLS a standalone coroutine
// with by-value parameters (sim/proc.hpp authoring rules).

Proc spin_forever(Context& ctx) {
  for (;;) co_await ctx.yield();
}

Proc write_then_decide(Context& ctx, RegAddr addr, Value v, Value dec) {
  co_await ctx.write(addr, std::move(v));
  co_await ctx.decide(std::move(dec));
}

Proc yield_n_then_decide(Context& ctx, int n, Value dec) {
  for (int i = 0; i < n; ++i) co_await ctx.yield();
  co_await ctx.decide(std::move(dec));
}

Proc yield_n_then_quit(Context& ctx, int n) {
  for (int i = 0; i < n; ++i) co_await ctx.yield();
  // Terminates WITHOUT deciding: the quitter the admission window must
  // retire (the terminated-undecided case of AdmissionWindow::refresh).
}

/// Safety predicate of a scenario whose n C-processes propose first,
/// first+1, ..., first+n-1: violated iff the decisions break the (n, k)-set
/// agreement relation — a decision nobody proposed, or more than k distinct
/// decisions.
struct SetAgreementCheck {
  SetAgreementTask task;
  ValueVec inputs;

  SetAgreementCheck(int n, int k, std::int64_t first)
      : task(n, k), inputs(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = Value(first + i);
  }
  [[nodiscard]] bool violated(const World& w) const {
    return !task.relation(inputs, w.output_vector());
  }
};

// The fixed register names below are resolved once per process: the farm
// builds a fresh world for every run and every shrink candidate.
Proc bcf_client(Context& ctx, int i) {
  static const Sym v = sym("bcf/V");
  co_await ctx.write(reg(v, i), Value(100 + i));
  const Value first = co_await ctx.read(reg(v, 0));
  co_await ctx.decide(first.is_nil() ? Value(100 + i) : first);
}

Proc brn_client(Context& ctx, int i) {
  static const Sym claim = sym("brn/C");
  static const Sym proposal = sym("brn/P");
  co_await ctx.write(reg(proposal, i), Value(i));
  for (int s = 1; s <= 9; ++s) {
    const Value cur = co_await ctx.read(reg(claim, s));
    if (cur.is_nil()) {
      co_await ctx.write(reg(claim, s), Value(i));  // claim without recheck: the bug
      co_await ctx.decide(Value(s));
      co_return;
    }
  }
  co_await ctx.decide(Value(9));  // unreachable with 8 clients and 9 slots
}

Proc tw_writer(Context& ctx) {
  static const RegAddr a{"tw/A"};
  static const RegAddr b{"tw/B"};
  for (std::int64_t e = 1;; ++e) {
    co_await ctx.write(a, Value(e));
    co_await ctx.write(b, Value(e));  // the commit; a crash in between tears the pair
    co_await ctx.yield();
  }
}

Proc tw_client(Context& ctx) {
  static const RegAddr a{"tw/A"};
  static const RegAddr b{"tw/B"};
  int torn = 0;
  for (;;) {
    const Value va = co_await ctx.read(a);
    if (va.is_nil()) {
      co_await ctx.yield();
      continue;
    }
    const Value vb = co_await ctx.read(b);
    if (vb == va || ++torn >= 3) {
      // torn >= 3 is the bug: "the writer must be dead" — decides the
      // uncommitted A value instead of falling back to the committed B.
      co_await ctx.decide(va);
      co_return;
    }
    co_await ctx.yield();
  }
}

Proc endless_proposer(Context& ctx, int me, Value v) {
  const PaxosInstance inst{"px", 2};
  for (int r = 0;; ++r) {
    const Value d = co_await paxos_attempt(ctx, inst, me, r, v);
    if (!d.is_nil()) {
      co_await ctx.decide(d);
      co_return;
    }
  }
}

// ---- synth_write_race ------------------------------------------------------
// Synthetic known-bad scenario (the shrinker's reference workload): three
// writers race on one register; "p1's write lost to p2's although p1 also
// decided" is the injected bug. Minimal witness: p1 writes, p2 overwrites,
// p1 decides — 3 steps out of a ~100-step random recording.

const RegAddr kSynthX{"synth/X"};

World make_synth_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  w.spawn_c(0, [](Context& ctx) { return write_then_decide(ctx, kSynthX, Value(1), Value(1)); });
  w.spawn_c(1, [](Context& ctx) { return write_then_decide(ctx, kSynthX, Value(2), Value(2)); });
  w.spawn_c(2, [](Context& ctx) { return yield_n_then_decide(ctx, 30, Value(0)); });
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool synth_violated(const World& w) {
  return w.memory().read(kSynthX) == Value(2) && w.decided(cpid(0));
}

ScheduleTape synth_record(std::uint64_t seed) {
  const FailurePattern base(1);
  World w = make_synth_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  return record_run("synth_write_race", w, rs, 2000);
}

/// `order` rotated left by (seed - 1) mod its length: the seed of a
/// scenario whose adversary is a fixed lockstep or arrival order picks which
/// process goes first, and seed 1 keeps the order as written.
template <class T>
std::vector<T> rotated(std::vector<T> order, std::uint64_t seed) {
  const auto r = static_cast<std::ptrdiff_t>((seed - 1) % order.size());
  std::rotate(order.begin(), order.begin() + r, order.end());
  return order;
}

// ---- paxos_lockstep_livelock ----------------------------------------------
// The Fig. 1 adversarial fact: strict lockstep rotation of two endless Paxos
// proposers preempts every ballot. Violation = livelock witness (both
// proposers keep working, nothing decides), so the EXPECTED outcome of this
// scenario's tapes is `violated` — the counterexample is the artifact. The
// seed picks which proposer leads the rotation.

World make_paxos_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  for (int i = 0; i < 2; ++i) {
    w.spawn_c(i, [i](Context& ctx) { return endless_proposer(ctx, i, Value(i)); });
  }
  return w;
}

bool paxos_violated(const World& w) {
  return w.memory().read("px/DEC").is_nil() && w.steps_taken(cpid(0)) >= 8 &&
         w.steps_taken(cpid(1)) >= 8;
}

ScheduleTape paxos_record(std::uint64_t seed) {
  const FailurePattern base(0);
  World w = make_paxos_world(base, TrivialFd{}.history(base, 0));
  LockstepScheduler ls(rotated<Pid>({cpid(0), cpid(1)}, seed));
  return record_run("paxos_lockstep_livelock", w, ls, 400);
}

// ---- cons_leader_crash_commit ---------------------------------------------
// Directed fault injection: leader-based consensus (Ω advice); the recording
// locates the leader's first Paxos accept (the ns/ACC write that commits a
// ballot) and kills that S-process at exactly the NEXT step index — the
// crash lands mid-commit, after the accept but before the decision write.
// Agreement and validity must survive (paxos safety needs no liveness).

constexpr int kConsN = 3;

World make_cons_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  const LeaderConsensusConfig cfg{"cons", kConsN};
  for (int i = 0; i < kConsN; ++i) w.spawn_c(i, make_consensus_client(cfg, Value(10 + i)));
  for (int i = 0; i < kConsN; ++i) w.spawn_s(i, make_consensus_server(cfg));
  return w;
}

bool cons_violated(const World& w) {
  static const SetAgreementCheck check(kConsN, 1, 10);
  return check.violated(w);
}

ScheduleTape cons_record(std::uint64_t seed) {
  const FailurePattern base(kConsN);
  const OmegaFd omega(12);

  // Phase 1: clean recording to locate the commit point. The base pattern is
  // failure-free and nothing is injected, so no step is refused and trace
  // position == schedule step index.
  std::vector<CrashPoint> crashes;
  {
    World w = make_cons_world(base, omega.history(base, seed));
    w.enable_trace();
    RandomScheduler inner(seed ^ 0x5EED);
    drive(w, inner, 4000);
    const Sym acc = sym("cons/ACC");
    const auto& trace = w.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& s = trace[i];
      if (s.pid.is_s() && s.op == OpKind::kWrite && s.addr == reg(acc, s.pid.index)) {
        crashes.push_back(CrashPoint{static_cast<std::int64_t>(i) + 1, s.pid.index});
        break;
      }
    }
  }

  // Phase 2: the actual recording, same seed, with the mid-commit kill. The
  // dead leader means nobody ever decides, so bound the post-crash window
  // explicitly — it is where the safety predicate gets exercised.
  const std::int64_t budget = crashes.empty() ? 1500 : crashes.front().step_index + 400;
  World w = make_cons_world(base, omega.history(base, seed));
  RandomScheduler inner(seed ^ 0x5EED);
  return record_run("cons_leader_crash_commit", w, inner, budget, {.crashes = std::move(crashes)});
}

// ---- renaming_flip_lockstep ------------------------------------------------
// Fig. 4 renaming under the flip-maximizing adversary: strict lockstep of
// all j participants keeps every collect one step stale, so suggestions
// flip-flop before settling. Safety: chosen names distinct and in
// [1, 2j-1]. The seed rotates the lockstep order.

constexpr int kRenJ = 3;

World make_ren_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  const RenamingConfig cfg{"ren", kRenJ};
  for (int i = 0; i < kRenJ; ++i) {
    w.spawn_c(i, make_renaming_kconc(cfg, Value(100 + i)));
  }
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool ren_violated(const World& w) {
  std::set<std::int64_t> names;
  for (int i = 0; i < kRenJ; ++i) {
    if (!w.decided(cpid(i))) continue;
    const Value d = w.decision(cpid(i));
    if (!d.is_int() || d.as_int() < 1 || d.as_int() > 2 * kRenJ - 1) return true;
    if (!names.insert(d.as_int()).second) return true;  // duplicate name
  }
  return false;
}

ScheduleTape ren_record(std::uint64_t seed) {
  const FailurePattern base(1);
  World w = make_ren_world(base, TrivialFd{}.history(base, 0));
  LockstepScheduler ls(rotated<Pid>({cpid(0), cpid(1), cpid(2)}, seed));
  return record_run("renaming_flip_lockstep", w, ls, 5000);
}

// ---- ksa_starved_leader ----------------------------------------------------
// The ¬Ωk starvation adversary against KSA: →Ωk's stable slot names one
// correct S-process, and the schedule suppresses exactly that process — the
// advice permanently points at a server that never steps (the FD-level
// starvation ¬Ωk's permanent-exclusion clause is about). Liveness may go,
// safety (≤ k distinct decisions, validity) must not.

constexpr int kKsaN = 4;
constexpr int kKsaK = 2;

World make_ksa_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  const KsaConfig cfg{"ksa", kKsaN, kKsaK};
  for (int i = 0; i < kKsaN; ++i) w.spawn_c(i, make_ksa_client(cfg, Value(i)));
  for (int i = 0; i < kKsaN; ++i) w.spawn_s(i, make_ksa_server(cfg));
  return w;
}

bool ksa_violated(const World& w) {
  static const SetAgreementCheck check(kKsaN, kKsaK, 0);
  return check.violated(w);
}

ScheduleTape ksa_record(std::uint64_t seed) {
  const FailurePattern base(kKsaN);
  const VectorOmegaK vo(kKsaK, 25);
  const int starved = vo.stable_slot(base, seed);
  World w = make_ksa_world(base, vo.history(base, seed));
  RoundRobinScheduler inner;
  SuppressScheduler sup(inner, [starved](Pid pid, const World&) {
    return pid == spid(starved);
  });
  return record_run("ksa_starved_leader", w, sup, 6000);
}

// ---- quitter_window --------------------------------------------------------
// The terminated-undecided window case: under a 1-concurrent admission
// window, the middle arrival terminates WITHOUT deciding. The window must
// retire it (a quitter can only take null steps) or the remaining arrivals
// starve; concurrency must never exceed 1 either way. The seed rotates the
// arrival order, so the quitter may also arrive first or last.

World make_quitter_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  w.spawn_c(0, [](Context& ctx) { return yield_n_then_decide(ctx, 3, Value(0)); });
  w.spawn_c(1, [](Context& ctx) { return yield_n_then_quit(ctx, 2); });
  w.spawn_c(2, [](Context& ctx) { return yield_n_then_decide(ctx, 3, Value(2)); });
  return w;
}

bool quitter_violated(const World& w) {
  return !w.decided(cpid(0)) || !w.decided(cpid(2)) || max_concurrency(w.trace()) > 1;
}

ScheduleTape quitter_record(std::uint64_t seed) {
  const FailurePattern base(0);
  World w = make_quitter_world(base, TrivialFd{}.history(base, 0));
  KConcurrencyScheduler ks(1, rotated<int>({0, 1, 2}, seed), 0);
  return record_run("quitter_window", w, ks, 200);
}

// ---- one_conc_window -------------------------------------------------------
// The generic 1-concurrent solver (Prop. 1) on consensus: correct ONLY in
// 1-concurrent runs, so the campaign drives it under a 1-slot admission
// window (plus starvation bursts, which the BurstScheduler must never let
// break the window). Safety: the decided vector satisfies the task relation.
// The seed rotates the arrival order.

constexpr int kP1cN = 3;

TaskPtr p1c_task() {
  static const TaskPtr task = std::make_shared<ConsensusTask>(kP1cN);
  return task;
}

World make_p1c_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  for (int i = 0; i < kP1cN; ++i) {
    w.spawn_c(i, make_one_concurrent(p1c_task(), Value(70 + i), "p1c"));
  }
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool p1c_violated(const World& w) {
  ValueVec in(kP1cN);
  for (int i = 0; i < kP1cN; ++i) {
    if (w.participating(cpid(i))) in[static_cast<std::size_t>(i)] = Value(70 + i);
  }
  return !p1c_task()->relation(in, w.output_vector());
}

ScheduleTape p1c_record(std::uint64_t seed) {
  const FailurePattern base(0);
  World w = make_p1c_world(base, TrivialFd{}.history(base, 0));
  KConcurrencyScheduler ks(1, rotated<int>({0, 1, 2}, seed), 0);
  return record_run("one_conc_window", w, ks, 400);
}

// ---- buggy_cons_first_writer -----------------------------------------------
// Seeded-bug consensus variant: each client publishes its proposal, then
// decides whatever it reads from slot 0 — OWN value if the read still shows
// ⊥. The classic write/read race: a client reading before p1's publish lands
// decides differently from one reading after. Campaigns must find the
// disagreement and shrink it to the ~6-step witness.

// 8 clients: the violating witness needs only TWO deciders (one reading
// before slot 0's publish, one after), so ddmin strips the other six bodies
// — campaign tapes shrink well below a quarter of their recorded length.
constexpr int kBcfN = 8;

World make_bcf_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  for (int i = 0; i < kBcfN; ++i) {
    w.spawn_c(i, [i](Context& ctx) { return bcf_client(ctx, i); });
  }
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool bcf_violated(const World& w) {
  static const SetAgreementCheck check(kBcfN, 1, 100);
  return check.violated(w);
}

ScheduleTape bcf_record(std::uint64_t seed) {
  const FailurePattern base(1);
  World w = make_bcf_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  return record_run("buggy_cons_first_writer", w, rs, 400);
}

// ---- buggy_ren_stale_claim -------------------------------------------------
// Seeded-bug renaming variant: a client claims the first free name slot
// WITHOUT re-reading after its claim write. Two clients observing the same
// free slot both claim it — duplicate names.

// 8 clients over 9 slots; a duplicate needs only two colliding claimants, so
// the other six bodies are ddmin fodder (see kBcfN).
constexpr int kBrnN = 8;

World make_brn_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  for (int i = 0; i < kBrnN; ++i) {
    w.spawn_c(i, [i](Context& ctx) { return brn_client(ctx, i); });
  }
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool brn_violated(const World& w) {
  std::set<std::int64_t> names;
  for (int i = 0; i < kBrnN; ++i) {
    if (!w.decided(cpid(i))) continue;
    const Value d = w.decision(cpid(i));
    if (!d.is_int() || d.as_int() < 1 || d.as_int() > 9) return true;
    if (!names.insert(d.as_int()).second) return true;  // duplicate name
  }
  return false;
}

ScheduleTape brn_record(std::uint64_t seed) {
  const FailurePattern base(1);
  World w = make_brn_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  return record_run("buggy_ren_stale_claim", w, rs, 400);
}

// ---- buggy_torn_commit -----------------------------------------------------
// Seeded-bug variant whose violation is FAULT-dependent, not just
// schedule-dependent: an S-writer publishes epochs as the pair A=e then B=e
// (B is the commit). The client double-reads; after three torn observations
// (A ≠ B) it concludes the writer is dead and decides A — the UNCOMMITTED
// value. That decision is only wrong at the end of the run if B never caught
// up, i.e. the writer crashed (or stayed starved) between the two writes —
// exactly what crash triggers ("kill after the next tw/A write") and storms
// landing mid-pair produce.

// 4 clients all double-reading the same pair; one wrong decider is a
// violation, the other three bodies shrink away.
constexpr int kTwC = 4;

World make_tw_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  for (int i = 0; i < kTwC; ++i) {
    w.spawn_c(i, [](Context& ctx) { return tw_client(ctx); });
  }
  w.spawn_s(0, [](Context& ctx) { return tw_writer(ctx); });
  for (int i = 1; i < f.n(); ++i) w.spawn_s(i, spin_forever);
  return w;
}

bool tw_violated(const World& w) {
  const std::int64_t committed = w.memory().read("tw/B").int_or(0);
  for (int i = 0; i < kTwC; ++i) {
    if (!w.decided(cpid(i))) continue;
    const Value d = w.decision(cpid(i));
    if (!d.is_int() || d.as_int() < 1 || d.as_int() > committed) return true;
  }
  return false;
}

ScheduleTape tw_record(std::uint64_t seed) {
  const FailurePattern base(1);
  World w = make_tw_world(base, TrivialFd{}.history(base, 0));
  // Canonical fault: kill the writer right after its next A write — the
  // trigger resolves online into a concrete crash point the tape carries.
  FaultPlan plan;
  plan.triggers.push_back(CrashTrigger{"tw/A", OpKind::kWrite, 1, 1 + static_cast<int>(seed % 2)});
  RandomScheduler rs(seed);
  ScheduleTape t = record_run("buggy_torn_commit", w, rs, 600, plan.drive_faults());
  t.plan = plan.to_string();
  return t;
}

// ---- mp_floodmin family ----------------------------------------------------
// FloodMin k-set agreement on the message-passing substrate (daemon-mode
// MsgSubstrate; sim/msg_world.hpp): 3 senders flood (index, input) to every
// mailbox and decide the min of the first n - f = 2 distinct senders heard.
// The three scenarios share one world builder and differ in faults + the k
// the predicate checks:
//  * mp_floodmin_clean       — failure-free; k = f+1 = 2 must hold (and does);
//  * mp_floodmin_partition   — {p0} vs {p1,p2} partition at t=0 (cross-group
//    link daemons crashed in the base pattern): p0 blocks forever polling its
//    inbox, p1/p2 decide among themselves; safety at k = 2 still holds — the
//    tape is the partition-induced-blocking artifact;
//  * mp_floodmin_crash_bcast — daemons ch[0][1], ch[0][2] killed right after
//    p0's FIRST send: the broadcast lands only on p0's own mailbox, its
//    messages to mb[1]/mb[2] die in flight. p1/p2 decide min{1,2} = 1 while
//    p0 (hearing its own 0) decides 0 — checked at k = 1 this is the decision
//    split behind the MP set-agreement impossibility boundary (E19), and the
//    injected MP violation the shrink pipeline minimizes.

constexpr int kMpfmN = 3;
constexpr int kMpfmF = 1;

World make_mpfm_world(const FailurePattern& f, HistoryPtr h) {
  World w = make_mp_world(kMpfmN, kMpfmN, f, std::move(h));
  const FloodMinConfig cfg{kMpfmN, kMpfmF};
  for (int i = 0; i < kMpfmN; ++i) w.spawn_c(i, make_floodmin(cfg, i, Value(i)));
  return w;
}

bool mpfm_kset_violated(const World& w) {
  static const SetAgreementCheck check(kMpfmN, kMpfmF + 1, 0);
  return check.violated(w);
}

bool mpfm_cons_violated(const World& w) {
  static const SetAgreementCheck check(kMpfmN, 1, 0);
  return check.violated(w);
}

ScheduleTape mpfm_clean_record(std::uint64_t seed) {
  const FailurePattern base(kMpfmN * kMpfmN);
  World w = make_mpfm_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  return record_run("mp_floodmin_clean", w, rs, 4000);
}

ScheduleTape mpfm_part_record(std::uint64_t seed) {
  const FailurePattern base = mp_partition(kMpfmN, kMpfmN, {0}, 0);
  World w = make_mpfm_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  // p0 never decides (its group is alone), so the drive runs its full
  // budget: keep it small — the artifact is the blocking, not the length.
  return record_run("mp_floodmin_partition", w, rs, 700);
}

ScheduleTape mpfm_crash_record(std::uint64_t seed) {
  const FailurePattern base(kMpfmN * kMpfmN);

  // Phase 1: clean same-seed recording to locate p0's first send (the base
  // pattern is failure-free and nothing is injected, so no step is refused
  // and trace position == schedule step index).
  std::vector<CrashPoint> crashes;
  {
    World w = make_mpfm_world(base, TrivialFd{}.history(base, 0));
    w.enable_trace();
    RandomScheduler inner(seed);
    drive(w, inner, 4000);
    const auto& trace = w.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& s = trace[i];
      if (s.pid == cpid(0) && s.op == OpKind::kSend) {
        // Kill p0's remaining outbound link daemons mid-broadcast: its
        // messages to mb[1]/mb[2] are sent but can never be delivered.
        crashes.push_back(CrashPoint{static_cast<std::int64_t>(i) + 1,
                                     mp_link_s_index(kMpfmN, 0, 1)});
        crashes.push_back(CrashPoint{static_cast<std::int64_t>(i) + 2,
                                     mp_link_s_index(kMpfmN, 0, 2)});
        break;
      }
    }
  }

  // Phase 2: the actual recording, same seed, with the mid-broadcast kills.
  World w = make_mpfm_world(base, TrivialFd{}.history(base, 0));
  RandomScheduler rs(seed);
  return record_run("mp_floodmin_crash_bcast", w, rs, 4000, {.crashes = std::move(crashes)});
}

// ---- mp_floodmin lossy pair ------------------------------------------------
// E20's acceptance pair: the SAME drop storm (every cross link ch[i][j],
// i != j, charged to swallow the next 2 deliveries at step 0) against the
// timeout-unsafe and the retransmission-hardened FloodMin.
//  * mp_floodmin_lossy_raw — make_floodmin_timeout: every process's flood is
//    swallowed, every inbox stays empty, all three run out of patience and
//    decide their OWN input — 3 distinct decisions violate 2-set agreement.
//    The tape's `linkfaults` line is semantic: replay re-charges the fabric.
//  * mp_floodmin_lossy_rt  — make_floodmin_rt under the identical plan: the
//    2-per-link drop budget is below the retry budget, the second retransmit
//    round gets through, everyone decides min of n - f heard. Safety holds.

World make_mpfm_lossy_raw_world(const FailurePattern& f, HistoryPtr h) {
  World w = make_mp_world(kMpfmN, kMpfmN, f, std::move(h));
  const FloodMinConfig cfg{kMpfmN, kMpfmF};
  for (int i = 0; i < kMpfmN; ++i) w.spawn_c(i, make_floodmin_timeout(cfg, i, Value(i)));
  return w;
}

World make_mpfm_lossy_rt_world(const FailurePattern& f, HistoryPtr h) {
  World w = make_mp_world(kMpfmN, kMpfmN, f, std::move(h));
  const FloodMinConfig cfg{kMpfmN, kMpfmF};
  for (int i = 0; i < kMpfmN; ++i) w.spawn_c(i, make_floodmin_rt(cfg, i, Value(i)));
  return w;
}

FaultPlan mpfm_drop_storm() {
  FaultPlan plan;
  for (int i = 0; i < kMpfmN; ++i) {
    for (int j = 0; j < kMpfmN; ++j) {
      if (i != j) plan.links.push_back(LinkAction{LinkFaultKind::kDrop, 0, i, j, 2});
    }
  }
  return plan;
}

ScheduleTape mpfm_lossy_record(const std::string& scenario_name,
                               World (*make_world)(const FailurePattern&, HistoryPtr),
                               std::uint64_t seed, std::int64_t max_steps) {
  const FailurePattern base(kMpfmN * kMpfmN);
  World w = make_world(base, TrivialFd{}.history(base, 0));
  const FaultPlan plan = mpfm_drop_storm();
  RandomScheduler rs(seed);
  ScheduleTape t = record_run(scenario_name, w, rs, max_steps, plan.drive_faults());
  t.plan = plan.to_string();
  return t;
}

ScheduleTape mpfm_lossy_raw_record(std::uint64_t seed) {
  return mpfm_lossy_record("mp_floodmin_lossy_raw", make_mpfm_lossy_raw_world, seed, 4000);
}

ScheduleTape mpfm_lossy_rt_record(std::uint64_t seed) {
  // The hardened run needs room for two doubling backoff rounds per process
  // before the retransmits get through.
  return mpfm_lossy_record("mp_floodmin_lossy_rt", make_mpfm_lossy_rt_world, seed, 8000);
}

std::vector<Scenario> build_registry() {
  return {
      {"synth_write_race",
       "synthetic writer race (shrinker reference; minimal witness = 3 steps)",
       make_synth_world, synth_violated, synth_record},
      {"paxos_lockstep_livelock",
       "two endless Paxos proposers under strict lockstep never decide",
       make_paxos_world, paxos_violated, paxos_record},
      {"cons_leader_crash_commit",
       "Omega-led consensus; leader killed mid-commit (first ACC write); safety holds",
       make_cons_world, cons_violated, cons_record},
      {"renaming_flip_lockstep",
       "Fig. 4 renaming under flip-maximizing lockstep; names distinct in [1, 2j-1]",
       make_ren_world, ren_violated, ren_record},
      {"ksa_starved_leader",
       "KSA with the stable →Ωk slot's server suppressed (¬Ωk starvation); ≤ k values",
       make_ksa_world, ksa_violated, ksa_record},
      {"quitter_window",
       "1-concurrent window with a terminated-undecided quitter; window retires it",
       make_quitter_world, quitter_violated, quitter_record},
      {"one_conc_window",
       "generic 1-concurrent consensus solver (Prop. 1) under a 1-slot window",
       make_p1c_world, p1c_violated, p1c_record},
      {"buggy_cons_first_writer",
       "seeded bug: consensus that decides the slot-0 read, own value on bottom",
       make_bcf_world, bcf_violated, bcf_record},
      {"buggy_ren_stale_claim",
       "seeded bug: renaming that claims a free slot without rechecking",
       make_brn_world, brn_violated, brn_record},
      {"buggy_torn_commit",
       "seeded bug: client trusts the uncommitted half of a torn A/B epoch write",
       make_tw_world, tw_violated, tw_record},
      {"mp_floodmin_clean",
       "FloodMin (n=3, f=1) on the MP substrate, failure-free; 2-set agreement holds",
       make_mpfm_world, mpfm_kset_violated, mpfm_clean_record},
      {"mp_floodmin_partition",
       "FloodMin under a {p0}|{p1,p2} partition (severed-link daemons); p0 blocks, safety holds",
       make_mpfm_world, mpfm_kset_violated, mpfm_part_record},
      {"mp_floodmin_crash_bcast",
       "FloodMin with p0's broadcast cut mid-flight (link daemons killed); decisions split at k=1",
       make_mpfm_world, mpfm_cons_violated, mpfm_crash_record},
      {"mp_floodmin_lossy_raw",
       "timeout FloodMin under a full cross-link drop storm; 3 own-input decisions break 2-set",
       make_mpfm_lossy_raw_world, mpfm_kset_violated, mpfm_lossy_raw_record},
      {"mp_floodmin_lossy_rt",
       "retransmit-hardened FloodMin under the same drop storm; retries recover, safety holds",
       make_mpfm_lossy_rt_world, mpfm_kset_violated, mpfm_lossy_rt_record},
  };
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> registry = build_registry();
  return registry;
}

const Scenario* find_scenario(const std::string& name) {
  for (const auto& s : scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ScenarioReplayOutcome replay_in_scenario(const Scenario& sc, const ScheduleTape& tape) {
  World w = sc.make_world(tape.pattern(), tape.history());
  ScenarioReplayOutcome out;
  out.replay = replay_tape(w, tape);
  out.violated = sc.violated(w);
  out.stats = w.run_stats();
  return out;
}

TapePredicate scenario_predicate(const Scenario& sc, bool expect_violated) {
  return [&sc, expect_violated](const ScheduleTape& tape) {
    World w = sc.make_world(tape.pattern(), tape.history());
    drive_tape(w, tape);
    return sc.violated(w) == expect_violated;
  };
}

ScheduleTape record_run(const std::string& scenario, World& w, Scheduler& sched,
                        std::int64_t max_steps, DriveFaults faults) {
  const FailurePattern base = w.pattern();
  w.enable_trace();
  RecordingScheduler rec(sched);
  const PlanDriveResult run = drive_with_faults(w, rec, max_steps, std::move(faults));
  ScheduleTape t = ScheduleTape::capture(scenario, base, rec.steps(), run, w);
  if (const Scenario* sc = find_scenario(scenario)) t.expect_violated = sc->violated(w);
  return t;
}

ShrunkFinding shrink_finding(const std::string& scenario, const ScheduleTape& tape,
                             const ShrinkOptions& opts, ShrinkStats* stats) {
  const Scenario* sc = find_scenario(scenario);
  if (sc == nullptr) {
    throw std::invalid_argument("shrink_finding: unknown scenario " + scenario);
  }
  const bool anchor =
      tape.expect_violated ? *tape.expect_violated : replay_in_scenario(*sc, tape).violated;
  ShrunkFinding out;
  out.mini = shrink_tape(tape, scenario_predicate(*sc, anchor), opts, stats);
  out.mini.expect_hash = replay_in_scenario(*sc, out.mini).replay.hash;
  out.mini.expect_violated = anchor;
  out.replay_ok = replay_in_scenario(*sc, out.mini).matches(out.mini);
  return out;
}

}  // namespace efd
