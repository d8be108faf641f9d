// Schedulers: who takes the next step.
//
// A Scheduler produces the schedule Sch of a run, one pid at a time, possibly
// reacting to the world's current state (decisions, crashes). The library
// ships:
//  * ExplicitSchedule  — replay a fixed finite sequence (the α(I,σ) map used
//                        by exhaustive exploration);
//  * RoundRobinScheduler — fair: cycles over alive S-processes and
//                        non-terminated C-processes;
//  * RandomScheduler   — seeded uniform choice among eligible processes;
//  * KConcurrencyScheduler — admits C-processes per an arrival order while
//                        keeping at most k participating-undecided at any
//                        time (the paper's k-concurrent runs), interleaving
//                        S-process steps fairly.
// `drive` runs a world under a scheduler until all C-processes decide, the
// scheduler is exhausted, or a step bound is hit. `drive_with_faults` is the
// same loop with step-indexed faults landing in it; replay (sim/replay.hpp)
// and fault plans (sim/faultplan.hpp) both drive through it, so a fault lands
// at the same step when a run is recorded and when it is replayed.
// `rehearse_kills` is that loop again, returning as soon as no kill can still
// land.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/channel.hpp"  // LinkFaultKind
#include "sim/hash.hpp"
#include "sim/ids.hpp"
#include "sim/stats.hpp"
#include "sim/world.hpp"

namespace efd {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Next process to step, or nullopt when the schedule is exhausted.
  [[nodiscard]] virtual std::optional<Pid> next(const World& w) = 0;
};

/// Replays a fixed sequence of pids.
class ExplicitSchedule final : public Scheduler {
 public:
  explicit ExplicitSchedule(std::vector<Pid> seq) : seq_(std::move(seq)) {}
  [[nodiscard]] std::optional<Pid> next(const World&) override {
    if (pos_ >= seq_.size()) return std::nullopt;
    return seq_[pos_++];
  }

 private:
  std::vector<Pid> seq_;
  std::size_t pos_ = 0;
};

/// Fair round-robin over alive S-processes and non-terminated C-processes.
/// Produces fair runs: every correct S-process is scheduled infinitely often.
class RoundRobinScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::optional<Pid> next(const World& w) override;

 private:
  std::size_t cursor_ = 0;
};

/// Seeded uniform choice among eligible (alive, non-terminated) processes.
/// Fair with probability 1; deterministic given the seed.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_{seed * 2862933555777941757ULL + 3037ULL} {}
  [[nodiscard]] std::optional<Pid> next(const World& w) override;

 private:
  SplitMix64 rng_;
  std::vector<Pid> pool_;  ///< eligible pids of the current pick, reused
};

/// The admission window of a k-concurrent run (paper §2.2): C-processes are
/// admitted in `arrival` order, at most k concurrently; a slot frees when
/// its process finishes. "Finished" means decided OR terminated: a process
/// whose coroutine ran to completion without deciding can never decide, only
/// take null steps, so keeping it admitted would starve the window forever.
/// (Its slot freeing admits runs the strict paper window would block — a
/// superset of the k-concurrent runs, which is the safe direction for
/// exploration-based certification.)
///
/// This is the single source of truth for admission bookkeeping: both the
/// KConcurrencyScheduler and the exhaustive explorer (core/solvability)
/// refresh through it — they historically hand-mirrored each other and
/// disagreed on exactly the terminated-but-undecided case. The explorer
/// backtracks by logging each refresh's delta (RefreshUndo) and rewinding
/// it with unrefresh().
class AdmissionWindow {
 public:
  AdmissionWindow() = default;
  AdmissionWindow(int k, std::vector<int> arrival) : k_(k), arrival_(std::move(arrival)) {}

  /// Retires finished processes and admits arrivals while the window has
  /// room. `finished(c)` reports whether C-index c is decided or terminated.
  /// (Constrained so a non-const World& still picks the overload below.)
  template <class FinishedFn,
            class = std::enable_if_t<std::is_invocable_r_v<bool, FinishedFn&, int>>>
  void refresh(FinishedFn&& finished) {
    RefreshUndo discarded;
    refresh_tracked(finished, discarded);
  }

  /// Convenience refresh against a live World.
  void refresh(const World& w) {
    refresh([&w](int c) { return w.decided(cpid(c)) || w.terminated(cpid(c)); });
  }

  /// Inverse log of one refresh_tracked() call. Retirements are recorded as
  /// (original position, value); the common per-DFS-edge case (at most one
  /// retirement — only the stepped process can change finished state — and
  /// at most one admission) fits the inline array, so tracking allocates
  /// nothing in steady state. The overflow vector only engages when more
  /// processes retire in a single refresh than the inline slots hold.
  struct RefreshUndo {
    struct Retired {
      std::uint32_t pos;  ///< index in active_ before the refresh
      int c;
    };
    std::size_t prev_next_arrival = 0;
    int prev_peak = 0;
    std::uint32_t admitted = 0;
    std::uint32_t retired = 0;
    std::array<Retired, 4> inline_retired{};
    std::vector<Retired> overflow_retired;  ///< entries 4.. in retire order
  };

  /// refresh(), recording the exact delta into `u` so unrefresh() can
  /// rewind it. `u` is reset and reused; repeated track/unwind cycles touch
  /// the heap only if a single refresh retires more than 4 processes.
  template <class FinishedFn,
            class = std::enable_if_t<std::is_invocable_r_v<bool, FinishedFn&, int>>>
  void refresh_tracked(FinishedFn&& finished, RefreshUndo& u) {
    u.prev_next_arrival = next_arrival_;
    u.prev_peak = stats_.peak_active;
    u.admitted = 0;
    u.retired = 0;
    u.overflow_retired.clear();
    std::size_t out = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const int c = active_[i];
      if (finished(c)) {
        const RefreshUndo::Retired entry{static_cast<std::uint32_t>(i), c};
        if (u.retired < u.inline_retired.size()) {
          u.inline_retired[u.retired] = entry;
        } else {
          u.overflow_retired.push_back(entry);
        }
        ++u.retired;
      } else {
        active_[out++] = c;
      }
    }
    active_.resize(out);
    stats_.retired += static_cast<std::int64_t>(u.retired);
    while (next_arrival_ < arrival_.size() && static_cast<int>(active_.size()) < k_) {
      active_.push_back(arrival_[next_arrival_++]);
      ++stats_.admitted;
      ++u.admitted;
    }
    stats_.peak_active = std::max(stats_.peak_active, static_cast<int>(active_.size()));
  }

  /// Exact inverse of the refresh_tracked() call that filled `u`. Must be
  /// applied in LIFO order relative to other window mutations.
  void unrefresh(const RefreshUndo& u) {
    active_.resize(active_.size() - u.admitted);  // admissions append at the tail
    stats_.admitted -= static_cast<std::int64_t>(u.admitted);
    next_arrival_ = u.prev_next_arrival;
    // Reinserting retirees in increasing original position inverts the
    // stable remove: earlier reinsertions restore exactly the prefix the
    // later positions were measured against.
    for (std::uint32_t i = 0; i < u.retired; ++i) {
      const auto& entry = i < u.inline_retired.size()
                              ? u.inline_retired[i]
                              : u.overflow_retired[i - u.inline_retired.size()];
      active_.insert(active_.begin() + entry.pos, entry.c);
    }
    stats_.retired -= static_cast<std::int64_t>(u.retired);
    stats_.peak_active = u.prev_peak;
  }

  /// Admitted, unfinished C-indices, in admission order (stable across
  /// retirements: survivors keep their relative order).
  [[nodiscard]] const std::vector<int>& active() const noexcept { return active_; }
  /// Arrival-order position of the next not-yet-admitted process.
  [[nodiscard]] std::size_t next_arrival() const noexcept { return next_arrival_; }
  [[nodiscard]] bool all_arrived() const noexcept { return next_arrival_ == arrival_.size(); }
  /// Everyone arrived and every admitted process finished.
  [[nodiscard]] bool exhausted() const noexcept { return all_arrived() && active_.empty(); }

  /// Admission totals since construction (unrefresh() rewinds them along
  /// with the rest of the window).
  [[nodiscard]] const AdmissionStats& stats() const noexcept { return stats_; }

 private:
  int k_ = 1;
  std::vector<int> arrival_;    ///< C-process indices in arrival order
  std::size_t next_arrival_ = 0;
  std::vector<int> active_;     ///< admitted, unfinished C indices
  AdmissionStats stats_;
};

/// k-concurrent scheduler (paper §2.2): C-processes arrive in `arrival`
/// order; a new one is admitted only while fewer than k admitted C-processes
/// are undecided. Alive S-processes are interleaved round-robin, `s_stride`
/// S-steps per C-step, so runs stay fair on the S side.
class KConcurrencyScheduler final : public Scheduler {
 public:
  KConcurrencyScheduler(int k, std::vector<int> arrival, int s_stride = 1)
      : window_(k, std::move(arrival)), s_stride_(s_stride) {}

  [[nodiscard]] std::optional<Pid> next(const World& w) override;

  /// Admission totals of the run so far (telemetry).
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept {
    return window_.stats();
  }

 private:
  AdmissionWindow window_;
  int s_stride_;
  std::size_t c_cursor_ = 0;
  std::size_t s_cursor_ = 0;
  int s_budget_ = 0;
};

struct DriveResult {
  std::int64_t steps = 0;       ///< scheduled (possibly null) steps attempted
  bool all_c_decided = false;   ///< stop cause: every C-process decided
  bool exhausted = false;       ///< stop cause: scheduler returned nullopt
  bool budget_exhausted = false;  ///< stop cause: max_steps hit first
};

/// Crash an S-process immediately before the schedule step with this index
/// executes (index = position in the recorded step sequence, counting refused
/// steps of already-crashed processes).
struct CrashPoint {
  std::int64_t step_index = 0;
  int s_index = 0;

  friend bool operator==(const CrashPoint&, const CrashPoint&) = default;
};

/// Charge `amount` link-fault charges of `kind` against the link named
/// `link` ("ch[i][j]") immediately before the schedule step with this index
/// executes. Unlike `plan`/`finding`, the tape's `linkfaults` line is
/// SEMANTIC: a drop changes which messages reach a mailbox, so replay
/// re-charges the fabric exactly as the recording drive did (sever/heal
/// ignore the amount; it serializes as the sever window's length purely as
/// provenance).
struct LinkFaultPoint {
  std::int64_t step_index = 0;
  std::string link;
  LinkFaultKind kind = LinkFaultKind::kDrop;
  int amount = 1;

  friend bool operator==(const LinkFaultPoint&, const LinkFaultPoint&) = default;
};

/// Kill the S-process that performs the `occurrence`-th trace step matching
/// (op, register-name prefix), `delay` schedule steps after the match.
struct CrashTrigger {
  std::string reg_prefix;       ///< canonical register-name prefix to watch
  OpKind op = OpKind::kWrite;   ///< kWrite or kRead
  int delay = 1;                ///< >= 1: steps between the match and the kill
  int occurrence = 1;           ///< >= 1: fire on the k-th match

  friend bool operator==(const CrashTrigger&, const CrashTrigger&) = default;
};

/// The resolved faults of one drive. None of the lists need be sorted. (The
/// `{}` initializers let a caller name only the lists it fills,
/// `{.links = ...}`, without -Wmissing-field-initializers.)
struct DriveFaults {
  std::vector<CrashPoint> crashes{};     ///< S-kills at fixed step indices
  std::vector<LinkFaultPoint> links{};   ///< link charges at fixed step indices
  std::vector<CrashTrigger> triggers{};  ///< S-kills armed by trace matches
};

struct PlanDriveResult {
  DriveResult drive;
  /// Crash points actually applied (kills of live processes, resolved
  /// trigger kills included), recorded at their application step index —
  /// feeding them back to drive_with_faults replays the faults exactly.
  /// Sorted by step_index; applied_at[i] is the model TIME of applied[i]'s
  /// injection, so an equivalent FailurePattern (crash_time = applied_at)
  /// can be built — the campaign uses it to recompute honest advice over the
  /// EFFECTIVE pattern.
  std::vector<CrashPoint> applied;
  std::vector<Time> applied_at;
  /// Link-fault charges actually applied, recorded at their application step
  /// index: tape-ready for ScheduleTape::linkfaults.
  std::vector<LinkFaultPoint> applied_links;
  int triggers_fired = 0;
};

/// Runs `w` under `sched` until all C-processes decide, the scheduler is
/// exhausted, or `max_steps` steps were attempted. Exactly one stop-cause
/// flag is set, checked in that priority order — in particular a world with
/// NO C-processes (reduction harnesses) reports budget_exhausted, never the
/// vacuous all_c_decided the pre-telemetry drive returned.
DriveResult drive(World& w, Scheduler& sched, std::int64_t max_steps);

/// drive() with faults; drive() is this loop with none. At the top of each
/// iteration, before the stop rule and the pick, every crash and link point
/// whose step_index is at most the steps attempted so far lands (crashes,
/// then link charges, then armed trigger kills). A trigger match arms its
/// kill after the step that matched, `delay` steps on. Kills go through
/// World::inject_crash, charges through Substrate::apply_link_fault. A fault
/// the world cannot take is skipped and left out of the result: a kill of an
/// S-process the world does not have or that is already down, a charge the
/// substrate refuses (a link it lacks, or no faultable links at all). Enables
/// tracing when there are triggers (matching reads the trace).
PlanDriveResult drive_with_faults(World& w, Scheduler& sched, std::int64_t max_steps,
                                  DriveFaults faults);

/// drive_with_faults() that also returns, after landing the due faults and
/// before the next pick, once no S-kill can still land: every crash point is
/// due, no armed trigger kill is pending and every trigger has fired. From
/// there on `applied` and `applied_at` cannot grow, so they equal what
/// drive_with_faults() returns for the same world, scheduler and faults; the
/// rest of the result describes the shorter drive (an early return sets no
/// stop-cause flag). For rehearsals, whose only output is when each kill
/// lands (core/campaign.hpp). A trigger that never matches keeps the drive
/// going to its ordinary stop.
PlanDriveResult rehearse_kills(World& w, Scheduler& sched, std::int64_t max_steps,
                               DriveFaults faults);

}  // namespace efd
