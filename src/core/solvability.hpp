// Exhaustive k-concurrent run exploration (paper §2.2, k-concurrency).
//
// For a RESTRICTED algorithm (S-processes take only null steps) a run is
// fully determined by the sequence of C-process choices, so the space of
// k-concurrent runs over a fixed input vector and arrival order is a tree:
// at every point the scheduler picks one of the (at most k) admitted,
// unfinished participants; a new participant is admitted whenever the window
// has room (admission bookkeeping lives in sim/schedule's AdmissionWindow,
// shared with KConcurrencyScheduler). The explorer walks this tree
// exhaustively (with state-signature deduplication — different interleavings
// converge) and checks the task relation at every node.
//
// Two engines produce identical outcomes:
//  * kFullReplay — the reference engine: re-executes the whole prefix from a
//    fresh World at every node (O(depth²) work per root-to-leaf path);
//  * kIncremental — the production engine: one persistent World advanced a
//    single step per DFS edge, with an exact undo log (memory cells,
//    signatures, decision flags, admission window) for backtracking.
//    Coroutine frames cannot run backwards, so a backtracked process is
//    lazily respawned and fast-forwarded by redelivering its logged step
//    results — deterministic replay makes that equivalent to never having
//    rewound it. O(1) amortized work per edge.
// With threads > 1 the incremental engine shards the DFS frontier over a
// work-stealing pool with one shared tiered signature store and a chunked
// budget pool; outcomes are reproducible regardless of thread count (see
// DESIGN.md, "Exploration engine", for the determinism argument).
//
// This is the constructive face of the paper's solvability definitions:
//  * a clean sweep at level k is machine-checked evidence that the algorithm
//    solves the task k-concurrently on the explored inputs;
//  * a violation at level k+1 (relation breach or no decision within the
//    step bound) exhibits the run the impossibility proofs talk about.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/diskset.hpp"
#include "core/telemetry.hpp"
#include "sim/world.hpp"
#include "tasks/task.hpp"

namespace efd {

enum class ExploreEngine {
  kIncremental,  ///< persistent world + undo log (default)
  kFullReplay,   ///< reference: fresh world + full prefix replay per node
};

struct ExploreConfig {
  int k = 1;                       ///< concurrency window
  std::vector<int> arrival;        ///< participating C-indices in arrival order
  int max_depth = 300;             ///< per-run step bound ("never decides" proxy)
  std::int64_t max_states = 100000;  ///< exploration budget
  bool dedup = true;               ///< merge states with equal signatures
  ExploreEngine engine = ExploreEngine::kIncremental;
  int threads = 1;                 ///< >1: parallel frontier (incremental engine only)
  /// Optional per-step observer attached to the engine's world(s), e.g. a
  /// core/monitors LivenessMonitor in accounting mode (its step counts are
  /// raw executed steps, INCLUDING backtracked ones — liveness bounds are
  /// meaningless across DFS branches, so attach with zero bounds). Ignored
  /// by parallel sweeps: one observer cannot soundly watch many worlds.
  StepObserver* observer = nullptr;
  /// Builds the world each engine explores in (null: World::failure_free(1),
  /// the legacy pure-register world). MUST be deterministic — the reference
  /// engine calls it once per node — and must NOT spawn C-processes (the
  /// explorer spawns the participants itself). The canonical use is a
  /// substrate install, e.g. [n] { World w = World::failure_free(1);
  /// install_msg_eager(w, n, n); return w; } — explored MP worlds are the
  /// EAGER (sends-land-instantly) subfamily: no link daemons, since S-steps
  /// are never scheduled by the restricted-algorithm tree. Worlds with an
  /// installed substrate explore with the BLOCKING-recv rule: a process whose
  /// next op is a recv on an empty mailbox is not schedulable (otherwise
  /// poll loops make every MP protocol a spurious step-bound violation);
  /// configurations where every live process is blocked are dead ends,
  /// counted as blocked_runs. Install ShmSubstrate explicitly on the
  /// registers-as-mailboxes side of a differential pair so both backends
  /// apply the identical rule.
  std::function<World()> world_factory;
  /// Dedup store shape (core/diskset.hpp). The default reads EFD_DEDUP_TIERS
  /// / EFD_DEDUP_MEM_MB / EFD_DEDUP_DIR, so every sweep in the process obeys
  /// the environment; a default environment yields the plain in-memory store
  /// (a FlatSigSet at 1 thread, tier 0 over unbudgeted shards in parallel
  /// sweeps). Semantic counters (states,
  /// terminal_runs, dedup_misses) are identical across store shapes — tiers
  /// only move where duplicates are detected and where the memory lives.
  DedupConfig dedup_store = DedupConfig::from_env();
};

struct ExploreOutcome {
  bool ok = true;
  bool budget_exhausted = false;   ///< hit max_states OR the memory cap before covering the tree
  bool mem_exhausted = false;      ///< the dedup store hit EFD_DEDUP_MEM_MB with no disk tier
                                   ///< (implies budget_exhausted: the sweep certifies nothing)
  std::int64_t terminal_runs = 0;  ///< complete runs reached (all decided)
  std::int64_t blocked_runs = 0;   ///< dead ends: live processes, all blocked on
                                   ///< an empty-mailbox recv (substrate worlds)
  std::int64_t states = 0;
  std::string violation;           ///< "" when ok
  std::vector<int> bad_schedule;   ///< C-index choices reproducing the violation
  ExploreStats stats;              ///< sweep telemetry (core/telemetry.hpp);
                                   ///< the deterministic subset matches
                                   ///< across engines and thread counts
};

/// Explores every k-concurrent schedule of the restricted algorithm `body`
/// over `inputs`. `body(i, input)` builds C-process i's coroutine.
/// Deterministic: the outcome is byte-identical across engines and thread
/// counts (non-clean parallel sweeps fall back to a canonical sequential
/// pass, so even bad_schedule is reproducible).
ExploreOutcome explore_k_concurrent(const TaskPtr& task,
                                    const std::function<ProcBody(int, Value)>& body,
                                    const ValueVec& inputs, const ExploreConfig& cfg);

struct CleanLevelResult {
  int level = 0;                 ///< highest level whose sweep was FULLY covered clean
  bool budget_exhausted = false;  ///< the sweep above `level` ran out of budget:
                                  ///< `level` is a certified lower bound only
  bool mem_exhausted = false;     ///< that exhaustion was the memory cap, not max_states
  std::int64_t states = 0;       ///< total states across all level sweeps
  ExploreStats stats;            ///< merged telemetry of the counted sweeps
};

/// The largest level 1..k_max at which exploration stays clean AND fully
/// covered on the given inputs (level 0 if even level 1 fails). A sweep that
/// exhausts its budget certifies nothing — it no longer bumps the level; the
/// exhaustion is surfaced so callers (core/hierarchy) can render the level
/// as a lower bound. Levels are swept in order and the scan stops at the
/// first violating or exhausted level; with base_cfg.threads > 1 each
/// level's sweep uses the parallel frontier.
CleanLevelResult max_clean_level(const TaskPtr& task,
                                 const std::function<ProcBody(int, Value)>& body,
                                 const ValueVec& inputs, int k_max,
                                 ExploreConfig base_cfg = {});

}  // namespace efd
