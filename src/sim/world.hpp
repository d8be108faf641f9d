// The World: deterministic executor of EFD runs.
//
// A World holds the shared registers, the spawned C- and S-process
// coroutines, a failure pattern for the S-processes, and one failure-detector
// history. `step(pid)` performs exactly one step of `pid`: it executes the
// process's pending operation against the memory / FD history at the current
// time, then resumes the coroutine until it registers its next operation.
// Runs are fully deterministic given (process bodies, schedule, pattern,
// history), which is what makes replay-based exploration (corridor DFS,
// bivalence search) sound.
//
// Allocation (PR 6): every path that can resume or construct a coroutine
// (spawn/respawn/prime/step/redeliver_all) installs the world's FrameArena as
// the thread's current arena, so all frames — bodies and their subroutines —
// are pooled per World. respawn() additionally reuses the process's Context
// (reset in place) instead of reallocating it, and step() only assembles a
// trace record when tracing is enabled. Steady-state stepping is
// allocation-free; see sim/arena.hpp for the pooling contract.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fd/failure_pattern.hpp"
#include "fd/history.hpp"
#include "sim/arena.hpp"
#include "sim/ids.hpp"
#include "sim/memory.hpp"
#include "sim/proc.hpp"
#include "sim/stats.hpp"
#include "sim/substrate.hpp"
#include "sim/trace.hpp"

namespace efd {

/// Factory producing a process body bound to its Context.
using ProcBody = std::function<Proc(Context&)>;

/// Per-step observer hook (core/monitors.hpp implements it). Called once for
/// every successful (non-refused) step, after the op executed; refused steps
/// of crashed S-processes are invisible to observers, like to the trace.
/// `op` is the executed operation kind (kYield for null steps) — the
/// retransmit-storm monitor classifies send traffic with it.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_step(Pid pid, OpKind op, bool null_step, bool decided_now,
                       bool terminated_now) = 0;
};

class World {
 public:
  /// A world with `num_s` S-processes failing per `pattern` and consulting
  /// `history`. C-processes are added via spawn_c; their count is free.
  World(FailurePattern pattern, HistoryPtr history)
      : pattern_(std::move(pattern)), history_(std::move(history)) {
    if (!history_) throw std::invalid_argument("World: null history");
  }

  /// Convenience: failure-free world with a trivial (all-Nil) history.
  static World failure_free(int num_s);

  World(const World&) = delete;
  World& operator=(const World&) = delete;
  // Movable: Contexts and the FrameArena are heap-allocated (stable
  // addresses), so suspended coroutine frames referencing them — and frame
  // headers naming the arena — survive the move.
  World(World&&) noexcept = default;
  World& operator=(World&&) noexcept = default;

  // ---- population ----

  /// Spawns C-process p_{i+1}. The body typically starts by writing its input.
  void spawn_c(int i, const ProcBody& body) { spawn(cpid(i), body); }
  /// Spawns S-process q_{i+1}.
  void spawn_s(int i, const ProcBody& body) { spawn(spid(i), body); }
  /// The body is only invoked, never stored: callers may (and the
  /// incremental explorer does) pass the same cached ProcBody repeatedly
  /// without paying a std::function copy per call.
  void spawn(Pid pid, const ProcBody& body);

  /// Replaces pid's coroutine with a fresh instance of `body` (Context reset
  /// in place: undecided, zero steps). Used by the incremental explorer to
  /// rewind a single process: coroutine frames cannot run backwards, so a
  /// backtracked process is respawned and fast-forwarded with redeliver_all().
  /// The old frame is recycled through the world's arena into the new one.
  void respawn(Pid pid, const ProcBody& body);

  [[nodiscard]] bool exists(Pid pid) const noexcept {
    const auto& v = pid.is_c() ? c_slots_ : s_slots_;
    return pid.index >= 0 && static_cast<std::size_t>(pid.index) < v.size() &&
           v[static_cast<std::size_t>(pid.index)].ctx != nullptr;
  }
  /// Every spawned pid in Pid order (C before S, ascending index). The list
  /// is maintained by spawn(), so reading it allocates nothing; schedulers
  /// call this on every pick.
  [[nodiscard]] const std::vector<Pid>& pids() const noexcept { return pids_; }
  [[nodiscard]] int num_c() const noexcept { return num_c_; }
  [[nodiscard]] int num_s() const noexcept { return num_s_; }

  // ---- execution ----

  /// Performs one step of `pid` at the current time. Returns false (and does
  /// not advance time) if `pid` is a crashed S-process; otherwise advances
  /// time by one tick. Steps of terminated processes are null steps.
  bool step(Pid pid);

  /// The operation pid's coroutine is suspended on, or nullptr if pid has
  /// terminated. Inspecting it does not perform the step; step(pid) will
  /// execute exactly this operation. (Primes the coroutine if needed.)
  [[nodiscard]] const PendingOp* pending_op(Pid pid);

  /// Replays steps of pid from a recorded run WITHOUT touching memory, the
  /// FD history, the trace, or model time: delivers each of `results` (the
  /// values the original steps produced), in order, straight to the
  /// coroutine, recording a decision whenever the pending op is a decide.
  /// Deterministic replay makes this equivalent to the original steps from
  /// the coroutine's point of view — the caller is responsible for the
  /// shared-memory side (the incremental explorer restores memory via its
  /// undo log, and replays whole per-process logs through this).
  /// C-processes only.
  void redeliver_all(Pid pid, const std::vector<Value>& results);

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// True iff pid's coroutine has run to completion.
  [[nodiscard]] bool terminated(Pid pid) const { return slot(pid).proc.done(); }
  /// True iff pid executed a decide step.
  [[nodiscard]] bool decided(Pid pid) const { return slot(pid).ctx->decided(); }
  [[nodiscard]] Value decision(Pid pid) const { return slot(pid).ctx->decision(); }
  /// Non-null steps taken by pid so far.
  [[nodiscard]] int steps_taken(Pid pid) const { return slot(pid).steps; }
  /// True once pid has taken at least one step (C-processes: participating).
  [[nodiscard]] bool participating(Pid pid) const { return slot(pid).steps > 0; }

  /// True iff every spawned C-process has decided.
  [[nodiscard]] bool all_c_decided() const;
  /// Output vector O of the run so far: O[i] = decision of p_{i+1}, ⊥ if none.
  [[nodiscard]] ValueVec output_vector() const;

  // ---- environment access ----

  [[nodiscard]] RegisterFile& memory() noexcept { return mem_; }
  [[nodiscard]] const RegisterFile& memory() const noexcept { return mem_; }
  [[nodiscard]] const FailurePattern& pattern() const noexcept { return pattern_; }

  // ---- substrate (communication-step semantics; sim/substrate.hpp) ----

  /// Installs a substrate. Must happen before the first send/recv/deliver
  /// step; pure register worlds never need one.
  void set_substrate(std::unique_ptr<Substrate> s) noexcept { substrate_ = std::move(s); }
  /// True once a substrate is installed — the explorers' cheap gate for
  /// MP-aware paths (pure register worlds skip them entirely).
  [[nodiscard]] bool substrate_set() const noexcept { return substrate_ != nullptr; }
  /// The substrate, lazily defaulting to registers-as-mailboxes: a world
  /// whose processes send/recv without an explicit install behaves as if
  /// every mailbox were one register holding its pending FIFO.
  [[nodiscard]] Substrate& substrate() {
    if (!substrate_) substrate_ = std::make_unique<ShmSubstrate>();
    return *substrate_;
  }

  /// Deterministic hash of the full shared state: register contents PLUS
  /// substrate-held mailbox state. Equals memory().content_hash() exactly
  /// when the substrate holds no state (none installed, or ShmSubstrate),
  /// and is byte-identical across backends holding the same mailbox
  /// contents — the property cross-backend exploration signatures rely on.
  [[nodiscard]] std::uint64_t state_hash() const noexcept {
    const std::uint64_t sub = substrate_ ? substrate_->hash_acc() : 0;
    return cell_content_hash(0x9AE16A3B2F90404FULL, mem_.hash_acc() + sub);
  }

  /// Crash-point fault injection: S-process q_{qi+1} crashes NOW (at the
  /// current time), regardless of what the constructed pattern said. No-op
  /// on an already-crashed process (crashes are permanent; re-injecting must
  /// not revive it for the interim). Used by drive_with_faults
  /// (sim/schedule.hpp) to kill a process at an exact schedule step index —
  /// "crash the leader mid-commit" scenarios.
  void inject_crash(int qi) {
    if (qi < 0 || qi >= pattern_.n()) {
      throw std::out_of_range("World::inject_crash: no such S-process");
    }
    if (!pattern_.alive(qi, now_)) return;
    pattern_.crash(qi, now_);
    ++stats_.injected_crashes;
  }
  [[nodiscard]] const History& history() const noexcept { return *history_; }
  /// True iff pid can take a step now (C-processes always can).
  [[nodiscard]] bool alive(Pid pid) const {
    return pid.is_c() || pattern_.alive(pid.index, now_);
  }

  // ---- tracing & telemetry ----

  void enable_trace(bool on = true) noexcept { tracing_ = on; }
  /// Pre-sizes the trace for `records` steps (replay knows its length).
  void reserve_trace(std::size_t records) { trace_.reserve(records); }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Attaches a per-step observer (nullptr detaches). The world does not own
  /// it; the caller keeps it alive across the drive. Unattached worlds pay
  /// one pointer test per step (E14 A/B: within noise, see EXPERIMENTS E15).
  void attach_observer(StepObserver* obs) noexcept { observer_ = obs; }
  [[nodiscard]] StepObserver* observer() const noexcept { return observer_; }

  /// Always-on run counters (see sim/stats.hpp for the invariants).
  [[nodiscard]] const RunStats& run_stats() const noexcept { return stats_; }
  /// Frame-pool telemetry of this world's arena (benchmark reporting).
  [[nodiscard]] const ArenaStats& arena_stats() const noexcept { return arena_->stats(); }

 private:
  struct Slot {
    Proc proc;
    std::unique_ptr<Context> ctx;  ///< null => slot index never spawned
    bool primed = false;
    int steps = 0;
  };

  [[nodiscard]] const Slot& slot(Pid pid) const;
  [[nodiscard]] Slot& slot(Pid pid);
  void prime(Slot& s);

  FailurePattern pattern_;
  HistoryPtr history_;
  RegisterFile mem_;
  std::unique_ptr<Substrate> substrate_;  ///< null: pure-register world
  // The arena must be declared before the slot vectors: members destroy in
  // reverse order, so the frames (owned by the slots' coroutines) are freed
  // back into a still-live arena.
  std::unique_ptr<FrameArena> arena_ = std::make_unique<FrameArena>();
  std::vector<Slot> c_slots_;
  std::vector<Slot> s_slots_;
  std::vector<Pid> pids_;  ///< spawned pids, sorted
  Time now_ = 0;
  int num_c_ = 0;
  int num_s_ = 0;
  bool tracing_ = false;
  Trace trace_;
  RunStats stats_;
  StepObserver* observer_ = nullptr;
};

}  // namespace efd
