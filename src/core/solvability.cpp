#include "core/solvability.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "core/diskset.hpp"
#include "core/explore_sig.hpp"
#include "core/workpool.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

// ---------------------------------------------------------------------------
// Budget + dedup context: what an explorer charges states against and
// inserts signatures into. Every sweep runs on one SweepContext, and every
// explorer — the only one of a 1-thread sweep, or the probe and each root
// job of a parallel one — gets its own WorkerContext over it, so the hot
// path writes nothing shared except the dedup insert itself (see DESIGN.md
// for why the clean-sweep outcome is nevertheless thread-count-invariant).
// ---------------------------------------------------------------------------

/// Budget and dedup traffic of a sweep, or of one job. For fully-covered
/// clean sweeps all three are thread-count-invariant (unique
/// signatures are expanded exactly once, so lookup multiplicity is
/// state-determined).
struct SweepCounts {
  std::int64_t states = 0;
  std::int64_t queries = 0;  ///< dedup lookups
  std::int64_t misses = 0;   ///< dedup first-inserts
};

/// The shared half of a sweep: the dedup store, the budget pool, the
/// stop/exhausted flags and the totals. Workers touch the pool once per
/// kChunk states and the totals once per job; every member written during a
/// sweep sits on a cache line of its own, so none is ping-ponged per state.
/// The store is always a TieredSigSet: its default config is exactly the
/// tier-0 per-thread cache over unbudgeted shards, and tier 0 answers most
/// duplicates without taking a shard lock.
class SweepContext {
 public:
  /// States a worker reserves from the budget pool at a time.
  static constexpr std::int64_t kChunk = 4096;

  SweepContext(std::int64_t max_states, const DedupConfig& store)
      : store_(store), budget_(std::max<std::int64_t>(max_states, 0)) {}

  /// Grants up to kChunk states of budget, capped at what the pool still
  /// holds; 0 once the pool is dry.
  std::int64_t reserve() {
    std::int64_t left = budget_.load(std::memory_order_relaxed);
    std::int64_t grant = 0;
    do {
      grant = std::min(left, kChunk);
      if (grant == 0) return 0;
    } while (!budget_.compare_exchange_weak(left, left - grant, std::memory_order_relaxed));
    return grant;
  }
  /// Ends one job: returns its unused allowance to the pool and adds its
  /// counts to the sweep totals.
  void finish_job(const SweepCounts& c, std::int64_t unused) {
    if (unused > 0) budget_.fetch_add(unused, std::memory_order_relaxed);
    totals_.states.fetch_add(c.states, std::memory_order_relaxed);
    totals_.queries.fetch_add(c.queries, std::memory_order_relaxed);
    totals_.misses.fetch_add(c.misses, std::memory_order_relaxed);
  }
  TieredSigSet& store() { return store_; }
  const TieredSigSet& store() const { return store_; }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  void stop() { stop_.store(true, std::memory_order_release); }
  void set_exhausted() { exhausted_.store(true, std::memory_order_relaxed); }
  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }
  /// Sweep totals; exact once every job has finished.
  SweepCounts totals() const {
    return {totals_.states.load(std::memory_order_relaxed),
            totals_.queries.load(std::memory_order_relaxed),
            totals_.misses.load(std::memory_order_relaxed)};
  }

 private:
  TieredSigSet store_;
  alignas(kCacheLineBytes) std::atomic<std::int64_t> budget_;  ///< unreserved states
  alignas(kCacheLineBytes) std::atomic<bool> stop_{false};
  alignas(kCacheLineBytes) std::atomic<bool> exhausted_{false};
  struct alignas(kCacheLineBytes) Totals {
    std::atomic<std::int64_t> states{0};
    std::atomic<std::int64_t> queries{0};
    std::atomic<std::int64_t> misses{0};
  } totals_;
};

/// One explorer's view of the sweep: it counts states, lookups and
/// first-inserts in plain integers and charges states against an allowance
/// reserved from the shared pool in chunks. The destructor hands both back
/// to the SweepContext, so a clean sweep's totals are exact sums over its
/// jobs. A worker whose pool request comes back empty reports exhaustion
/// even when other workers still hold unused allowance; near the budget
/// boundary a parallel sweep can therefore over-report exhaustion, never
/// under-report it, and every exhaustion reruns the canonical sequential
/// pass (one worker, which sees the whole pool).
class WorkerContext {
 public:
  explicit WorkerContext(SweepContext& shared) : shared_(shared) {}
  ~WorkerContext() { shared_.finish_job(counts_, allowance_); }
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  /// Counts one state against the budget; false once the budget is exceeded
  /// (the over-budget state is still counted, so an exhausted sweep reports
  /// max_states + 1 states) or the store hit its memory cap.
  bool charge() {
    // A memory-capped store that overflowed with no disk tier aborts the
    // sweep the same way max_states does: the result is a lower bound.
    // Checked on every state, so the sweep stops at the first state after
    // the latch, not at the end of a reserved chunk.
    if (shared_.store().mem_exhausted()) {
      shared_.set_exhausted();
      return false;
    }
    ++counts_.states;
    if (allowance_ == 0 && (allowance_ = shared_.reserve()) == 0) {
      shared_.set_exhausted();
      return false;
    }
    --allowance_;
    return true;
  }
  /// Dedup insert; true iff `sig` was unseen. First insert wins.
  bool visit(std::uint64_t sig) {
    ++counts_.queries;
    const bool fresh = shared_.store().insert(sig);
    counts_.misses += fresh ? 1 : 0;
    return fresh;
  }
  bool stopped() const { return shared_.stopped(); }
  void stop() { shared_.stop(); }

 private:
  SweepContext& shared_;
  SweepCounts counts_;
  std::int64_t allowance_ = 0;  ///< reserved states not yet charged
};

/// Fills the context-derived fields of a finished sweep's outcome: the
/// totals, the exhaustion flags and the store's per-tier traffic. Every
/// WorkerContext over `ctx` must have been destroyed.
void finish_sweep(ExploreOutcome& out, const SweepContext& ctx, int threads,
                  std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  const SweepCounts counts = ctx.totals();
  out.states = counts.states;
  out.mem_exhausted = ctx.store().mem_exhausted();
  if (ctx.exhausted() || out.mem_exhausted) out.budget_exhausted = true;
  ExploreStats& stats = out.stats;
  stats.terminal_runs = out.terminal_runs;
  stats.blocked_runs = out.blocked_runs;
  stats.states = counts.states;
  stats.dedup_queries = counts.queries;
  stats.dedup_misses = counts.misses;
  stats.dedup_hits = counts.queries - counts.misses;
  stats.threads = threads;
  stats.elapsed_s = dt.count();
  stats.states_per_s = dt.count() > 0 ? static_cast<double>(stats.states) / dt.count() : 0;
  const TierStats t = ctx.store().tier_stats();
  stats.dedup_recent_hits = t.recent_hits;
  stats.dedup_mem_hits = t.mem_hits;
  stats.dedup_cold_probes = t.cold_probes;
  stats.dedup_bloom_skips = t.bloom_skips;
  stats.dedup_cold_hits = t.cold_hits;
  stats.dedup_spills = t.spills;
  stats.dedup_spilled_sigs = t.spilled_sigs;
  stats.dedup_spill_bytes = t.spill_bytes;
  stats.dedup_merges = t.merges;
}

// ---------------------------------------------------------------------------
// Incremental engine: one persistent World, one real step per DFS edge, an
// exact undo log per edge for backtracking.
//
// Everything copyable is undone exactly: the touched memory cell (value +
// written flag, via RegisterFile::undo_write), the per-process signature
// chain, decision/termination flags, the output vector, and the admission
// window. The one thing that cannot be undone is the coroutine frame itself
// — frames only run forward — so each process keeps a log of every step its
// live frame consumed plus a logical position. Popping an edge only moves
// the position back: the frame is then AHEAD of it. Re-pushing a step the
// frame already consumed reuses the frame when the step would get the same
// result; otherwise the process is respawned and fast-forwarded by
// redelivering the results below the position, and deterministic replay
// guarantees the rebuilt frame is indistinguishable from one that never ran
// ahead. A process that is never scheduled again is never rebuilt, which is
// what makes the amortized cost per edge O(1): sibling subtrees of process c
// rebuild only c.
//
// World time (`now_`) keeps advancing across backtracks. That is sound here
// because explored algorithms are RESTRICTED and the world failure-free:
// C-processes never query the failure detector, so no observable value
// depends on model time.
// ---------------------------------------------------------------------------

class IncrementalExplorer {
 public:
  IncrementalExplorer(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                      const ValueVec& inputs, const ExploreConfig& cfg, WorkerContext& ctx)
      : task_(task),
        body_(body),
        inputs_(inputs),
        cfg_(cfg),
        ctx_(ctx),
        w_(cfg.world_factory ? cfg.world_factory() : World::failure_free(1)),
        window_(cfg.k, cfg.arrival),
        mp_(w_.substrate_set()) {
    const std::size_t n = static_cast<std::size_t>(task_->n_procs());
    proc_sig_.assign(n, kFnv1aTruncatedBasis);
    decided_.assign(n, 0);
    terminated_.assign(n, 0);
    outs_.resize(n);
    logs_.resize(n);
    bodies_.resize(n);
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      // Cache the ProcBody once per process: every respawn reuses it instead
      // of manufacturing a fresh std::function through the factory.
      bodies_[ii] = body_(i, inputs_[ii]);
      w_.spawn_c(i, bodies_[ii]);
    }
    if (cfg_.threads <= 1) w_.attach_observer(cfg_.observer);
    relation_ok_ = task_->relation(inputs_, outs_);
    window_.refresh([this](int c) { return finished(c); });
  }

  /// Full DFS from the current configuration (entry bookkeeping included).
  void dfs() {
    if (enter_node() != Node::kExpand) return;
    // window_.active() mutates below; snapshot it onto the shared scratch
    // stack (index-based: recursion may grow/reallocate it) instead of a
    // fresh vector per node.
    const std::size_t base = elig_stack_.size();
    push_eligible_children(elig_stack_);
    const std::size_t top = elig_stack_.size();
    for (std::size_t j = base; j < top; ++j) {
      if (ctx_.stopped()) break;
      const int c = elig_stack_[j];
      push_step(c);
      dfs();
      pop_step();
    }
    elig_stack_.resize(base);
  }

  /// Repositions the world at `prefix` WITHOUT entry bookkeeping,
  /// backtracking only past the common ancestor (frontier expansion visits
  /// prefixes in near-sibling order). Parallel jobs start here from the
  /// root: the probe already accounted for the ancestors.
  void move_to(const std::vector<int>& prefix) {
    std::size_t common = 0;
    while (common < prefix.size() && common < path_.size() &&
           path_[common].c == prefix[common]) {
      ++common;
    }
    while (path_.size() > common) pop_step();
    for (std::size_t i = common; i < prefix.size(); ++i) push_step(prefix[i]);
  }

  enum class Node { kPruned, kExpand };

  /// Entry bookkeeping for the current configuration, in the order
  /// budget → relation → terminal → depth → dedup.
  Node enter_node() {
    if (!ctx_.charge()) {
      out_.budget_exhausted = true;
      ctx_.stop();
      return Node::kPruned;
    }
    // relation(inputs_, outs_) is a pure predicate and outs_ only changes on
    // decide edges, so the verdict is cached there instead of being
    // recomputed at every node (it dominated enter_node: two sorted
    // distinct-value vectors per call on the set-agreement family).
    if (!relation_ok_) {
      fail("task relation violated");
      return Node::kPruned;
    }
    if (window_.exhausted()) {
      ++out_.terminal_runs;
      return Node::kPruned;
    }
    if (static_cast<int>(path_.size()) >= cfg_.max_depth) {
      fail("no decision within step bound (possible non-termination)");
      return Node::kPruned;
    }
    if (!ctx_.visit(sig())) return Node::kPruned;
    return Node::kExpand;
  }

  /// Appends the eligible successors of the current configuration: the
  /// admission window, minus blocked-recv processes when a substrate is
  /// installed (pure register worlds keep the zero-overhead copy). A node
  /// whose window is live but fully blocked is a DEAD END, not a terminal
  /// run: nobody can move, nobody has violated anything — counted so
  /// cross-backend runs can assert they agree on blocking structure. The
  /// parallel probe expands through this too, so probe and workers agree
  /// with the sequential engine node for node.
  void push_eligible_children(std::vector<int>& out) {
    if (!mp_) {
      out.insert(out.end(), window_.active().begin(), window_.active().end());
      return;
    }
    const std::size_t base = out.size();
    for (int c : window_.active()) {
      if (!blocked(c)) out.push_back(c);
    }
    if (out.size() == base && !window_.active().empty()) ++out_.blocked_runs;
  }

  ExploreOutcome take_outcome() { return std::move(out_); }

 private:
  /// One step a process's frame consumed: enough to take it again
  /// world-side only, and to undo it.
  struct LoggedStep {
    OpKind op = OpKind::kYield;
    RegAddr addr;             ///< op target (register or mailbox)
    Value value;              ///< written (kWrite), decided (kDecide) or sent value
    bool decided = false;     ///< this step recorded the process's first decision
    bool terminated = false;  ///< this step completed the coroutine
  };

  /// Every step one process's live frame has consumed, in order, and its
  /// logical position. Entries below `pos` are the process's steps on the
  /// DFS path; entries at or above it were consumed by a frame that ran
  /// ahead of popped edges. results[j] is what step j delivered, so a
  /// rebuilt frame is fed exactly results[0, pos).
  struct StepLog {
    std::vector<LoggedStep> steps;
    std::vector<Value> results;
    std::size_t pos = 0;
  };

  /// Undo data of one DFS edge. What the step did is the last entry below
  /// the stepping process's log position.
  struct PathStep {
    int c = 0;
    Value prev_value;  ///< the touched cell (write, send, recv) before the step
    bool prev_written = false;
    std::uint64_t prev_proc_sig = 0;
    bool prev_relation_ok = true;  ///< relation verdict before a decide edge
    AdmissionWindow::RefreshUndo win_undo;  ///< delta, not a window snapshot
  };

  [[nodiscard]] bool finished(int c) const {
    const auto i = static_cast<std::size_t>(c);
    return decided_[i] != 0 || terminated_[i] != 0;
  }

  /// BLOCKING recv: true iff scheduling c now would execute a recv on an
  /// empty mailbox. Exploration never schedules such a step — otherwise a
  /// poll loop (recv-Nil-retry) makes every MP protocol a spurious
  /// step-bound violation, exactly the busy-waiting the paper's wait-free
  /// notion abstracts away. A frame that ran ahead is judged by its logged
  /// step at the logical position, never by w_'s pending op — that op
  /// belongs to a future configuration.
  [[nodiscard]] bool blocked(int c) {
    const StepLog& log = logs_[static_cast<std::size_t>(c)];
    OpKind op;
    RegAddr addr;
    if (log.pos < log.steps.size()) {
      op = log.steps[log.pos].op;
      addr = log.steps[log.pos].addr;
    } else {
      const PendingOp* p = w_.pending_op(cpid(c));
      if (p == nullptr) return false;
      op = p->kind;
      addr = p->addr;
    }
    if (op != OpKind::kRecv) return false;
    return w_.substrate().peek_recv(w_.memory(), addr).is_nil();
  }

  /// True iff the frame ran ahead and the step it consumed at the logical
  /// position would get exactly the result the current configuration
  /// delivers: then the frame is already in the post-step state. Writes,
  /// yields and decides get Nil; a read is compared against memory.
  /// Substrate ops change a mailbox through the substrate, not one register
  /// cell, and FD answers are time-dependent, so neither is reused.
  [[nodiscard]] bool ahead_matches(const StepLog& log) const {
    if (log.pos == log.steps.size()) return false;
    const LoggedStep& st = log.steps[log.pos];
    if (st.op == OpKind::kRead) return w_.memory().read(st.addr) == log.results[log.pos];
    return st.op == OpKind::kWrite || st.op == OpKind::kYield || st.op == OpKind::kDecide;
  }

  /// Records the cell the step (op, addr) is about to change: the register
  /// of a write, or the mailbox of a send or recv, read through the
  /// substrate (fabric pending queue or backing register — the substrate
  /// knows which) so pop_step can restore it exactly.
  void snapshot_cell(PathStep& ps, OpKind op, RegAddr addr) {
    if (op == OpKind::kWrite) {
      ps.prev_written = w_.memory().written(addr);
      if (ps.prev_written) ps.prev_value = w_.memory().read(addr);
    } else if (op == OpKind::kSend || op == OpKind::kRecv) {
      ps.prev_written = w_.substrate().cell_state(w_.memory(), addr, ps.prev_value);
    }
  }

  /// Takes c's next step in the world and logs it at the logical position.
  /// A frame that ran ahead is first rebuilt there: the steps it consumed
  /// past the position are dropped, and the rest are redelivered.
  void step_live(int c, StepLog& log, PathStep& ps) {
    const auto i = static_cast<std::size_t>(c);
    if (log.pos < log.steps.size()) {
      log.steps.resize(log.pos);
      log.results.resize(log.pos);
      w_.respawn(cpid(c), bodies_[i]);
      ++out_.stats.respawns;
      w_.redeliver_all(cpid(c), log.results);
      out_.stats.redelivers += static_cast<std::int64_t>(log.pos);
    }
    const PendingOp* op = w_.pending_op(cpid(c));
    if (op == nullptr) {
      throw std::logic_error("IncrementalExplorer: scheduled a finished process");
    }
    snapshot_cell(ps, op->kind, op->addr);
    Value result;  // what the step delivers back (mirrors World::step)
    if (op->kind == OpKind::kRead) {
      result = w_.memory().read(op->addr);
    } else if (op->kind == OpKind::kRecv) {
      result = w_.substrate().peek_recv(w_.memory(), op->addr);
    }
    log.steps.push_back(LoggedStep{op->kind, op->addr, op->value});
    w_.step(cpid(c));  // executes exactly `op`
    log.steps.back().decided = decided_[i] == 0 && w_.decided(cpid(c));
    log.steps.back().terminated = terminated_[i] == 0 && w_.terminated(cpid(c));
    log.results.push_back(std::move(result));
  }

  void push_step(int c) {
    const auto i = static_cast<std::size_t>(c);
    StepLog& log = logs_[i];
    PathStep& ps = path_.emplace_back();  // filled in place; popped on undo
    ps.c = c;
    ps.prev_proc_sig = proc_sig_[i];
    if (ahead_matches(log)) {
      // The frame is already past this step: apply its world-side effects.
      const LoggedStep& st = log.steps[log.pos];
      snapshot_cell(ps, st.op, st.addr);
      if (st.op == OpKind::kWrite) w_.memory().write(st.addr, st.value);
      if (StepObserver* obs = w_.observer()) {
        // Same signature World::step would have reported for this step.
        obs->on_step(cpid(c), st.op, false, st.op == OpKind::kDecide, st.terminated);
      }
      ++out_.stats.ghost_hits;
    } else {
      step_live(c, log, ps);
    }
    const LoggedStep& st = log.steps[log.pos];
    proc_sig_[i] = explore_sig::chain_step(proc_sig_[i], st.op, log.results[log.pos]);
    ++log.pos;
    if (st.decided) {
      decided_[i] = 1;
      outs_[i] = st.value;
      ps.prev_relation_ok = relation_ok_;
      relation_ok_ = task_->relation(inputs_, outs_);
    }
    if (st.terminated) terminated_[i] = 1;
    window_.refresh_tracked([this](int cc) { return finished(cc); }, ps.win_undo);
    out_.stats.max_undo_depth =
        std::max(out_.stats.max_undo_depth, static_cast<std::int64_t>(path_.size()));
  }

  /// Undoes the last edge. The step stays in its process's log, above the
  /// position, so pushing it again can reuse the frame.
  void pop_step() {
    const PathStep& ps = path_.back();
    const auto i = static_cast<std::size_t>(ps.c);
    const LoggedStep& st = logs_[i].steps[--logs_[i].pos];
    window_.unrefresh(ps.win_undo);
    proc_sig_[i] = ps.prev_proc_sig;
    if (st.decided) {
      decided_[i] = 0;
      outs_[i] = Value{};
      relation_ok_ = ps.prev_relation_ok;
    }
    if (st.terminated) terminated_[i] = 0;
    if (st.op == OpKind::kWrite) {
      w_.memory().undo_write(st.addr, ps.prev_value, ps.prev_written);
    } else if (st.op == OpKind::kSend || st.op == OpKind::kRecv) {
      w_.substrate().restore_cell(w_.memory(), st.addr, ps.prev_value, ps.prev_written);
    }
    path_.pop_back();  // invalidates ps — must stay last
  }

  /// Full-configuration signature (format: core/explore_sig.hpp). The
  /// shared-state hash is byte-identical across backends holding the same
  /// registers and mailbox contents.
  [[nodiscard]] std::uint64_t sig() const {
    std::uint64_t s = w_.state_hash();
    for (std::size_t i = 0; i < proc_sig_.size(); ++i) {
      s = explore_sig::fold_proc(s, proc_sig_[i], decided_[i] != 0);
    }
    return explore_sig::fold_arrival(s, window_.next_arrival());
  }

  void fail(const char* msg) {
    out_.ok = false;
    out_.violation = msg;
    out_.bad_schedule.clear();
    for (const PathStep& ps : path_) out_.bad_schedule.push_back(ps.c);
    ctx_.stop();
  }

  TaskPtr task_;
  const std::function<ProcBody(int, Value)>& body_;
  ValueVec inputs_;
  ExploreConfig cfg_;
  WorkerContext& ctx_;
  ExploreOutcome out_;

  World w_;
  AdmissionWindow window_;
  /// Substrate installed at construction → blocking-recv eligibility filter.
  /// Latched ONCE: a world that lazily grows a default substrate mid-sweep
  /// (bodies sending without a factory install) keeps the unfiltered rule
  /// for the whole sweep, so eligibility stays configuration-deterministic.
  bool mp_;
  std::vector<PathStep> path_;    ///< the DFS path, root edge first
  std::vector<int> elig_stack_;   ///< dfs eligibility snapshots, all depths
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies (respawn)

  // Logical (undo-tracked) per-process state; w_'s own flags lag behind for
  // frames that ran ahead, so the engine never consults them outside
  // step_live.
  std::vector<std::uint64_t> proc_sig_;
  std::vector<std::uint8_t> decided_;
  std::vector<std::uint8_t> terminated_;
  ValueVec outs_;
  bool relation_ok_ = true;  ///< cached task_->relation(inputs_, outs_)
  std::vector<StepLog> logs_;
};

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

ExploreOutcome explore_sequential(const TaskPtr& task,
                                  const std::function<ProcBody(int, Value)>& body,
                                  const ValueVec& inputs, const ExploreConfig& cfg) {
  SweepContext ctx(cfg.max_states, cfg.dedup_store);
  const auto t0 = std::chrono::steady_clock::now();
  ExploreOutcome out;
  {
    WorkerContext worker(ctx);
    IncrementalExplorer e(task, body, inputs, cfg, worker);
    e.dfs();
    out = e.take_outcome();
  }
  finish_sweep(out, ctx, /*threads=*/1, t0);
  return out;
}

/// Parallel frontier: a short deterministic sequential expansion splits the
/// tree into >= 4*threads un-entered subtree roots, which a work-stealing
/// pool then explores against a shared budget pool and a shared
/// first-insert-wins signature set. A CLEAN sweep's outcome is
/// thread-count-invariant (the expanded-signature closure does not depend on
/// insertion races — DESIGN.md gives the argument) and is returned; any
/// violation or budget exhaustion makes the parallel numbers
/// schedule-dependent, so those attempts return nullopt for the caller to
/// rerun the sequential engine.
std::optional<ExploreOutcome> parallel_attempt(const TaskPtr& task,
                                               const std::function<ProcBody(int, Value)>& body,
                                               const ValueVec& inputs, const ExploreConfig& cfg) {
  SweepContext ctx(cfg.max_states, cfg.dedup_store);
  const std::size_t target = static_cast<std::size_t>(cfg.threads) * 4;
  const auto t0 = std::chrono::steady_clock::now();

  ExploreOutcome expansion_out;
  std::vector<std::vector<int>> roots;
  {
    WorkerContext probe_ctx(ctx);
    IncrementalExplorer probe(task, body, inputs, cfg, probe_ctx);
    std::deque<std::vector<int>> queue;
    queue.emplace_back();
    std::vector<int> children;
    while (!queue.empty() && queue.size() < target && !ctx.stopped()) {
      std::vector<int> prefix = std::move(queue.front());
      queue.pop_front();
      probe.move_to(prefix);
      if (probe.enter_node() == IncrementalExplorer::Node::kExpand) {
        children.clear();
        probe.push_eligible_children(children);
        for (int c : children) {
          std::vector<int> child = prefix;
          child.push_back(c);
          queue.push_back(std::move(child));
        }
      }
    }
    expansion_out = probe.take_outcome();
    roots.assign(queue.begin(), queue.end());
  }

  std::vector<ExploreOutcome> parts(roots.size());
  PoolStats pool_stats;
  if (!ctx.stopped() && !roots.empty()) {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      jobs.push_back([&, i] {
        if (ctx.stopped()) return;
        WorkerContext job_ctx(ctx);
        IncrementalExplorer e(task, body, inputs, cfg, job_ctx);
        e.move_to(roots[i]);
        e.dfs();
        parts[i] = e.take_outcome();
      });
    }
    WorkStealingPool::run(std::move(jobs), cfg.threads, &pool_stats);
  }

  bool clean = expansion_out.ok;
  for (const ExploreOutcome& p : parts) clean = clean && p.ok;
  if (!clean || ctx.exhausted() || ctx.store().mem_exhausted()) return std::nullopt;

  ExploreOutcome out;
  out.terminal_runs = expansion_out.terminal_runs;
  out.blocked_runs = expansion_out.blocked_runs;
  out.stats = expansion_out.stats;  // probe respawns/redelivers/undo depth
  for (const ExploreOutcome& p : parts) {
    out.terminal_runs += p.terminal_runs;
    out.blocked_runs += p.blocked_runs;
    out.stats.max_undo_depth = std::max(out.stats.max_undo_depth, p.stats.max_undo_depth);
    out.stats.respawns += p.stats.respawns;
    out.stats.redelivers += p.stats.redelivers;
    out.stats.ghost_hits += p.stats.ghost_hits;
  }
  out.stats.pool_steals = pool_stats.steals;
  finish_sweep(out, ctx, cfg.threads, t0);
  return out;
}

}  // namespace

ExploreOutcome explore_k_concurrent(const TaskPtr& task,
                                    const std::function<ProcBody(int, Value)>& body,
                                    const ValueVec& inputs, const ExploreConfig& cfg) {
  if (cfg.threads <= 1) return explore_sequential(task, body, inputs, cfg);
  if (std::optional<ExploreOutcome> out = parallel_attempt(task, body, inputs, cfg)) {
    return std::move(*out);
  }
  // The attempt was not clean: return the canonical sequential outcome
  // (identical to threads == 1). This doubles as the "lexicographically
  // smallest bad_schedule wins" merge rule, since sequential DFS finds
  // exactly that schedule first. The attempt's store, parts and crew are
  // freed before the rerun fills a store of its own, so a rerun never holds
  // two stores (or two spill directories) at once.
  ExploreConfig seq = cfg;
  seq.threads = 1;
  return explore_sequential(task, body, inputs, seq);
}

CleanLevelResult max_clean_level(const TaskPtr& task,
                                 const std::function<ProcBody(int, Value)>& body,
                                 const ValueVec& inputs, int k_max, ExploreConfig base_cfg) {
  if (base_cfg.arrival.empty()) {
    base_cfg.arrival = Task::participants(inputs);
  }
  // Levels run in order, each through explore_k_concurrent (so threads > 1
  // parallelizes within a level), and stop at the first level that is not
  // fully covered clean: nothing above it can raise the result.
  CleanLevelResult r;
  for (int k = 1; k <= k_max; ++k) {
    ExploreConfig cfg = base_cfg;
    cfg.k = k;
    const ExploreOutcome o = explore_k_concurrent(task, body, inputs, cfg);
    r.states += o.states;
    r.stats.merge(o.stats);
    if (!o.ok) {
      r.violation = o.violation;
      break;
    }
    if (o.budget_exhausted) {
      r.budget_exhausted = true;  // level k only sampled: r.level is a lower bound
      r.mem_exhausted = o.mem_exhausted;
      break;
    }
    r.level = k;
  }
  return r;
}

}  // namespace efd
