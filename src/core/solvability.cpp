#include "core/solvability.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "core/diskset.hpp"
#include "core/sigset.hpp"
#include "core/workpool.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kDecidedSalt = 7919u;

/// splitmix64 finalizer: avalanches a per-process step chain before it
/// enters the cross-process fold. Without it the node signature is linear
/// in the per-process chains over the SAME prime as the per-step fold, so
/// it degenerates to a hash of the concatenated traces: the process
/// boundary contributes only kFnvOffset * prime^(steps_i + procs - i),
/// and that multiset collides whenever two schedules swap step counts
/// between processes whose step contributions are identical (e.g. writes,
/// which fold Nil + op regardless of address or value). Observed in the
/// wild: schedules 0,1,1,1,1 and 1,1,0,0,0 of the set-agreement solver
/// produced equal signatures for genuinely different configurations,
/// silently merging their subtrees. Mixing makes the outer fold see
/// avalanche-distinct summaries, destroying the structural cancellation.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// The world an engine explores in: the configured factory (substrate
/// installs, MP worlds) or the legacy pure-register default.
World make_explore_world(const ExploreConfig& cfg) {
  return cfg.world_factory ? cfg.world_factory() : World::failure_free(1);
}

// ---------------------------------------------------------------------------
// Budget + dedup context: what an explorer charges states against and
// inserts signatures into. The sequential variant keeps the hot path free of
// atomics. A parallel sweep gives every explorer (the probe and each root
// job) its own WorkerContext over one shared ParallelContext, so the hot
// path still writes nothing shared except the dedup insert itself (see
// DESIGN.md for why the clean-sweep outcome is nevertheless
// thread-count-invariant).
// ---------------------------------------------------------------------------

class ExploreContext {
 public:
  virtual ~ExploreContext() = default;
  /// Counts one state against the budget; false once the budget is exceeded
  /// (the over-budget state is still counted, matching the legacy engine).
  virtual bool charge() = 0;
  /// Dedup insert; true iff `sig` was unseen. First insert wins.
  virtual bool visit(std::uint64_t sig) = 0;
  virtual bool stopped() const = 0;
  virtual void stop() = 0;
};

/// Budget and dedup traffic of a sweep, or of one parallel job. For
/// fully-covered clean sweeps all three are engine- and
/// thread-count-invariant (unique signatures are expanded exactly once, so
/// lookup multiplicity is state-determined).
struct SweepCounts {
  std::int64_t states = 0;
  std::int64_t queries = 0;  ///< dedup lookups
  std::int64_t misses = 0;   ///< dedup first-inserts
};

class SequentialContext final : public ExploreContext {
 public:
  SequentialContext(std::int64_t max_states, const DedupConfig& store)
      : max_states_(max_states),
        tiered_(store.plain() ? nullptr : std::make_unique<TieredSigSet>(store)) {}
  bool charge() override {
    // A memory-capped store that overflowed with no disk tier aborts the
    // sweep the same way max_states does: the result is a lower bound.
    if (tiered_ != nullptr && tiered_->mem_exhausted()) {
      exhausted_ = true;
      return false;
    }
    if (++states_ > max_states_) {
      exhausted_ = true;
      return false;
    }
    return true;
  }
  bool visit(std::uint64_t sig) override {
    ++queries_;
    const bool fresh = tiered_ != nullptr ? tiered_->insert(sig) : visited_.insert(sig);
    misses_ += fresh ? 1 : 0;
    return fresh;
  }
  bool stopped() const override { return stop_; }
  void stop() override { stop_ = true; }
  bool exhausted() const { return exhausted_; }
  /// True once the dedup store hit its memory cap with no disk tier — the
  /// sweep is aborted (charge() starts failing) and certifies nothing.
  bool mem_exhausted() const { return tiered_ != nullptr && tiered_->mem_exhausted(); }
  /// The tiered store, when one is configured (nullptr = plain legacy set).
  const TieredSigSet* store() const { return tiered_.get(); }
  SweepCounts counts() const { return {states_, queries_, misses_}; }

 private:
  std::int64_t max_states_;
  std::int64_t states_ = 0;
  std::int64_t queries_ = 0;
  std::int64_t misses_ = 0;
  bool stop_ = false;
  bool exhausted_ = false;
  FlatSigSet visited_;  ///< flat probing set: no node alloc per insert
  std::unique_ptr<TieredSigSet> tiered_;  ///< replaces visited_ when configured
};

/// The shared half of a parallel sweep: the dedup store, the budget pool,
/// the stop/exhausted flags and the totals. Workers touch the pool once per
/// kChunk states and the totals once per job; every member written during a
/// sweep sits on a cache line of its own, so none is ping-ponged per state.
/// The store is always a TieredSigSet: its plain config is exactly the
/// tier-0 per-thread cache over unbudgeted shards, and tier 0 answers most
/// duplicates without taking a shard lock.
class ParallelContext {
 public:
  /// States a worker reserves from the budget pool at a time.
  static constexpr std::int64_t kChunk = 4096;

  ParallelContext(std::int64_t max_states, const DedupConfig& store)
      : store_(store), budget_(std::max<std::int64_t>(max_states, 0)) {}

  /// Grants up to kChunk states of budget, capped at what the pool still
  /// holds; 0 once the pool is dry or the store hit its memory cap.
  std::int64_t reserve() {
    if (store_.mem_exhausted()) return 0;
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

/// One parallel explorer's view of the sweep: it counts states, lookups and
/// first-inserts in plain integers and charges states against an allowance
/// reserved from the shared pool in chunks. The destructor hands both back
/// to the ParallelContext, so a clean sweep's totals are exact sums over its
/// jobs. A worker whose pool request comes back empty reports exhaustion
/// even when other workers still hold unused allowance; near the budget
/// boundary a parallel sweep can therefore over-report exhaustion, never
/// under-report it, and every exhaustion reruns the canonical sequential
/// pass.
class WorkerContext final : public ExploreContext {
 public:
  explicit WorkerContext(ParallelContext& shared) : shared_(shared) {}
  ~WorkerContext() override { shared_.finish_job(counts_, allowance_); }
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  bool charge() override {
    ++counts_.states;
    if (allowance_ == 0 && (allowance_ = shared_.reserve()) == 0) {
      shared_.set_exhausted();
      return false;
    }
    --allowance_;
    return true;
  }
  bool visit(std::uint64_t sig) override {
    ++counts_.queries;
    const bool fresh = shared_.store().insert(sig);
    counts_.misses += fresh ? 1 : 0;
    return fresh;
  }
  bool stopped() const override { return shared_.stopped(); }
  void stop() override { shared_.stop(); }

 private:
  ParallelContext& shared_;
  SweepCounts counts_;
  std::int64_t allowance_ = 0;  ///< reserved states not yet charged
};

/// Fills the context-derived fields of `stats` at the end of a sweep.
void harvest_context(ExploreStats& stats, const SweepCounts& counts, bool mem_exhausted,
                     const TieredSigSet* store, int threads, double elapsed_s) {
  stats.states = counts.states;
  stats.dedup_queries = counts.queries;
  stats.dedup_misses = counts.misses;
  stats.dedup_hits = counts.queries - counts.misses;
  stats.threads = threads;
  stats.elapsed_s = elapsed_s;
  stats.states_per_s = elapsed_s > 0 ? static_cast<double>(stats.states) / elapsed_s : 0;
  stats.mem_exhausted = mem_exhausted;
  if (store != nullptr) {
    const TierStats t = store->tier_stats();
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
}

// ---------------------------------------------------------------------------
// Incremental engine: one persistent World, one real step per DFS edge, an
// exact undo log per edge for backtracking.
//
// Everything copyable is undone exactly: the touched memory cell (value +
// written flag, via RegisterFile::undo_write), the per-process signature
// chain, decision/termination flags, the output vector, and the admission
// window. The one thing that cannot be undone is the coroutine frame itself
// — frames only run forward — so popping an edge merely marks its process
// DIRTY (coroutine one step ahead of the logical position). The next time a
// dirty process is scheduled it is respawned and fast-forwarded by
// redelivering its logged step results; deterministic replay guarantees the
// rebuilt frame is indistinguishable from one that never ran ahead. A
// process that is never scheduled again is never rebuilt, which is what
// makes the amortized cost per edge O(1): sibling subtrees of process c
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
                      const ValueVec& inputs, const ExploreConfig& cfg, ExploreContext& ctx)
      : task_(task),
        body_(body),
        inputs_(inputs),
        cfg_(cfg),
        ctx_(ctx),
        w_(make_explore_world(cfg)),
        window_(cfg.k, cfg.arrival),
        mp_(w_.substrate_set()) {
    const std::size_t n = static_cast<std::size_t>(task_->n_procs());
    proc_sig_.assign(n, kFnvOffset);
    decided_.assign(n, 0);
    terminated_.assign(n, 0);
    exists_.assign(n, 0);
    outs_.resize(n);
    proc_log_.resize(n);
    ghost_.resize(n);
    bodies_.resize(n);
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      // Cache the ProcBody once per process: every respawn reuses it instead
      // of manufacturing a fresh std::function through the factory.
      bodies_[ii] = body_(i, inputs_[ii]);
      w_.spawn_c(i, bodies_[ii]);
      exists_[ii] = 1;
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

  /// Advances to `prefix` WITHOUT entry bookkeeping (used by parallel
  /// workers: the frontier expansion already accounted for the ancestors).
  void seek(const std::vector<int>& prefix) {
    for (int c : prefix) push_step(c);
  }

  /// Repositions the world at `prefix`, backtracking only past the common
  /// ancestor (frontier expansion visits prefixes in near-sibling order).
  void move_to(const std::vector<int>& prefix) {
    std::size_t common = 0;
    while (common < prefix.size() && common < sched_.size() &&
           sched_[common] == prefix[common]) {
      ++common;
    }
    while (sched_.size() > common) pop_step();
    for (std::size_t i = common; i < prefix.size(); ++i) push_step(prefix[i]);
  }

  enum class Node { kPruned, kExpand };

  /// Entry bookkeeping for the current configuration, in the same order as
  /// the reference engine: budget → relation → terminal → depth → dedup.
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
    if (static_cast<int>(sched_.size()) >= cfg_.max_depth) {
      fail("no decision within step bound (possible non-termination)");
      return Node::kPruned;
    }
    if (cfg_.dedup && !ctx_.visit(sig())) return Node::kPruned;
    return Node::kExpand;
  }

  [[nodiscard]] const std::vector<int>& active() const noexcept { return window_.active(); }
  [[nodiscard]] const std::vector<int>& sched() const noexcept { return sched_; }
  ExploreOutcome take_outcome() { return std::move(out_); }

  /// Eligible successors of the current configuration: the admission window
  /// filtered by the blocking-recv rule (substrate worlds). Counts a blocked
  /// dead end like dfs() would — used by the parallel frontier expansion so
  /// probe and workers agree with the sequential engine node for node.
  [[nodiscard]] std::vector<int> eligible_children() {
    std::vector<int> out;
    push_eligible_children(out);
    return out;
  }

 private:
  /// One DFS edge of the undo log.
  struct PathStep {
    int c = 0;
    OpKind op = OpKind::kYield;
    RegAddr addr;                ///< write target (op == kWrite only)
    Value prev_value;            ///< cell content before the write
    bool prev_written = false;
    std::uint64_t prev_proc_sig = 0;
    bool became_decided = false;
    bool became_terminated = false;
    bool prev_relation_ok = true;  ///< relation verdict before this decide edge
    AdmissionWindow::RefreshUndo win_undo;  ///< delta, not a window snapshot
  };

  /// One step a live coroutine frame consumed BEYOND the logical position
  /// (its edge was popped). Deterministic replay cuts both ways: if the next
  /// logical step of the process would deliver exactly `result` again, the
  /// ran-ahead frame is already in the correct post-step state, and the step
  /// can be applied world-side only — no respawn, no replay, no resume.
  /// Everything here is a pure function of the process's consumed-result
  /// prefix, which is what makes the reuse sound.
  struct GhostStep {
    OpKind op = OpKind::kYield;
    RegAddr addr;           ///< op target (kRead/kWrite)
    Value result;           ///< result the frame consumed at this position
    Value value;            ///< written value (kWrite) / decision (kDecide)
    bool decided = false;   ///< this step recorded the first decision
    bool terminated = false;///< this step completed the coroutine
  };

  [[nodiscard]] bool finished(int c) const {
    const auto i = static_cast<std::size_t>(c);
    return decided_[i] != 0 || terminated_[i] != 0;
  }

  /// BLOCKING recv: true iff scheduling c now would execute a recv on an
  /// empty mailbox. Exploration never schedules such a step — otherwise a
  /// poll loop (recv-Nil-retry) makes every MP protocol a spurious
  /// step-bound violation, exactly the busy-waiting the paper's wait-free
  /// notion abstracts away. A dirty process (frame ran ahead) is judged by
  /// its next ghost step, never by w_'s pending op — the frame is past the
  /// logical position and its pending op belongs to a future configuration.
  [[nodiscard]] bool blocked(int c) {
    const auto i = static_cast<std::size_t>(c);
    OpKind op;
    RegAddr addr;
    if (!ghost_[i].empty()) {
      const GhostStep& gs = ghost_[i].back();
      op = gs.op;
      addr = gs.addr;
    } else {
      const PendingOp* p = w_.pending_op(cpid(c));
      if (p == nullptr) return false;
      op = p->kind;
      addr = p->addr;
    }
    if (op != OpKind::kRecv) return false;
    return w_.substrate().peek_recv(w_.memory(), addr).is_nil();
  }

  /// Appends the eligible successors of the current configuration: the
  /// admission window, minus blocked-recv processes when a substrate is
  /// installed (pure register worlds keep the zero-overhead copy). A node
  /// whose window is live but fully blocked is a DEAD END, not a terminal
  /// run: nobody can move, nobody has violated anything — counted so
  /// cross-backend runs can assert they agree on blocking structure.
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

  /// Rebuilds c's coroutine at the logical position if it ran ahead
  /// (non-empty ghost log = frame consumed results beyond the position).
  void ensure_fresh(int c) {
    const auto i = static_cast<std::size_t>(c);
    if (ghost_[i].empty()) return;
    ghost_[i].clear();
    w_.respawn(cpid(c), bodies_[i]);
    ++out_.stats.respawns;
    w_.redeliver_all(cpid(c), proc_log_[i]);
    out_.stats.redelivers += static_cast<std::int64_t>(proc_log_[i].size());
  }

  /// Fast path of push_step: the frame ran ahead, and its next ghost step
  /// would consume exactly the result the current configuration delivers.
  /// Applies the step's world-side effects (memory write, flags, window)
  /// and reclaims the ghost entry; the frame itself is already past the
  /// step. Returns false (leaving no side effects) when the results
  /// diverge — the caller then respawns and replays as usual.
  bool try_ghost_step(int c) {
    const auto i = static_cast<std::size_t>(c);
    const GhostStep& gs = ghost_[i].back();
    if (gs.op == OpKind::kSend || gs.op == OpKind::kRecv || gs.op == OpKind::kDeliver) {
      // Substrate ops mutate fabric/mailbox state through the substrate, not
      // a single register cell; replaying them world-side only would need the
      // substrate's mutation AND a proof the consumed result still matches.
      // Rare on the explored (eager, blocking-recv) tree — always respawn.
      return false;
    }
    Value result;
    if (gs.op == OpKind::kRead) {
      result = w_.memory().read(gs.addr);
      if (result != gs.result) return false;
    } else if (gs.op == OpKind::kQuery) {
      return false;  // FD answers are time-dependent; never ghost-replayed
    }
    // Non-read ops deliver Nil, which trivially matches the ghost.
    PathStep& ps = path_.emplace_back();
    ps.c = c;
    ps.op = gs.op;
    ps.addr = gs.addr;
    ps.prev_proc_sig = proc_sig_[i];
    if (gs.op == OpKind::kWrite) {
      ps.prev_written = w_.memory().written(gs.addr);
      if (ps.prev_written) ps.prev_value = w_.memory().read(gs.addr);
      w_.memory().write(gs.addr, gs.value);
    }
    proc_log_[i].push_back(result);
    proc_sig_[i] = proc_sig_[i] * kFnvPrime + result.hash() + static_cast<std::uint64_t>(ps.op);
    if (gs.decided && decided_[i] == 0) {
      ps.became_decided = true;
      decided_[i] = 1;
      outs_[i] = gs.value;
      ps.prev_relation_ok = relation_ok_;
      relation_ok_ = task_->relation(inputs_, outs_);
    }
    if (gs.terminated) {
      ps.became_terminated = true;
      terminated_[i] = 1;
    }
    if (StepObserver* obs = w_.observer()) {
      // Same signature World::step would have reported for this step.
      obs->on_step(cpid(c), gs.op, false, gs.op == OpKind::kDecide, gs.terminated);
    }
    ghost_[i].pop_back();
    ++out_.stats.ghost_hits;
    window_.refresh_tracked([this](int cc) { return finished(cc); }, ps.win_undo);
    sched_.push_back(c);
    out_.stats.max_undo_depth =
        std::max(out_.stats.max_undo_depth, static_cast<std::int64_t>(path_.size()));
    return true;
  }

  void push_step(int c) {
    const auto i = static_cast<std::size_t>(c);
    if (!ghost_[i].empty() && try_ghost_step(c)) return;
    ensure_fresh(c);
    const PendingOp* op = w_.pending_op(cpid(c));
    if (op == nullptr) {
      throw std::logic_error("IncrementalExplorer: scheduled a finished process");
    }
    PathStep& ps = path_.emplace_back();  // filled in place; popped on undo
    ps.c = c;
    ps.op = op->kind;
    ps.prev_proc_sig = proc_sig_[i];
    Value result;  // what the step delivers back (mirrors World::step)
    if (op->kind == OpKind::kRead) {
      ps.addr = op->addr;  // kept so a popped edge can become a ghost step
      result = w_.memory().read(op->addr);
    } else if (op->kind == OpKind::kWrite) {
      ps.addr = op->addr;
      ps.prev_written = w_.memory().written(op->addr);
      if (ps.prev_written) ps.prev_value = w_.memory().read(op->addr);
    } else if (op->kind == OpKind::kSend || op->kind == OpKind::kRecv) {
      // Substrate ops touch exactly one mailbox cell; snapshot it through
      // the substrate (fabric pending queue or backing register — the
      // substrate knows which) so pop_step can restore it exactly.
      ps.addr = op->addr;
      ps.prev_written = w_.substrate().cell_state(w_.memory(), op->addr, ps.prev_value);
      if (op->kind == OpKind::kRecv) {
        result = w_.substrate().peek_recv(w_.memory(), op->addr);
      }
    }
    w_.step(cpid(c));  // executes exactly `op`
    proc_log_[i].push_back(result);
    proc_sig_[i] = proc_sig_[i] * kFnvPrime + result.hash() + static_cast<std::uint64_t>(ps.op);
    if (decided_[i] == 0 && w_.decided(cpid(c))) {
      ps.became_decided = true;
      decided_[i] = 1;
      outs_[i] = w_.decision(cpid(c));
      ps.prev_relation_ok = relation_ok_;
      relation_ok_ = task_->relation(inputs_, outs_);
    }
    if (terminated_[i] == 0 && w_.terminated(cpid(c))) {
      ps.became_terminated = true;
      terminated_[i] = 1;
    }
    window_.refresh_tracked([this](int cc) { return finished(cc); }, ps.win_undo);
    sched_.push_back(c);
    out_.stats.max_undo_depth =
        std::max(out_.stats.max_undo_depth, static_cast<std::int64_t>(path_.size()));
  }

  void pop_step() {
    PathStep& ps = path_.back();
    sched_.pop_back();
    const auto i = static_cast<std::size_t>(ps.c);
    window_.unrefresh(ps.win_undo);
    proc_sig_[i] = ps.prev_proc_sig;
    // The frame stays one step ahead; record what it consumed so a future
    // push of this process can reuse it instead of respawning (ghost path).
    GhostStep gs;
    gs.op = ps.op;
    gs.addr = ps.addr;
    gs.result = std::move(proc_log_[i].back());
    gs.decided = ps.became_decided;
    gs.terminated = ps.became_terminated;
    if (ps.op == OpKind::kWrite) gs.value = w_.memory().read(ps.addr);
    if (ps.became_decided) {
      gs.value = outs_[i];
      decided_[i] = 0;
      outs_[i] = Value{};
      relation_ok_ = ps.prev_relation_ok;
    }
    if (ps.became_terminated) terminated_[i] = 0;
    if (ps.op == OpKind::kWrite) {
      w_.memory().undo_write(ps.addr, ps.prev_value, ps.prev_written);
    } else if (ps.op == OpKind::kSend || ps.op == OpKind::kRecv) {
      w_.substrate().restore_cell(w_.memory(), ps.addr, ps.prev_value, ps.prev_written);
    }
    proc_log_[i].pop_back();
    ghost_[i].push_back(std::move(gs));
    path_.pop_back();  // invalidates ps — must stay last
  }

  /// Full-configuration signature; identical formula to the reference
  /// engine's (shared-state hash — registers plus substrate-held mailbox
  /// state, byte-identical across backends holding the same contents —
  /// per-process step-result chains, decided salts, admission progress).
  [[nodiscard]] std::uint64_t sig() const {
    std::uint64_t s = w_.state_hash();
    for (std::size_t i = 0; i < proc_sig_.size(); ++i) {
      s = s * kFnvPrime + mix64(proc_sig_[i]) +
          (exists_[i] != 0 && decided_[i] != 0 ? kDecidedSalt : 0u);
    }
    s = s * kFnvPrime + static_cast<std::uint64_t>(window_.next_arrival());
    return s;
  }

  void fail(const char* msg) {
    out_.ok = false;
    out_.violation = msg;
    out_.bad_schedule = sched_;
    ctx_.stop();
  }

  TaskPtr task_;
  const std::function<ProcBody(int, Value)>& body_;
  ValueVec inputs_;
  ExploreConfig cfg_;
  ExploreContext& ctx_;
  ExploreOutcome out_;

  World w_;
  AdmissionWindow window_;
  /// Substrate installed at construction → blocking-recv eligibility filter.
  /// Latched ONCE: a world that lazily grows a default substrate mid-sweep
  /// (bodies sending without a factory install) keeps the unfiltered rule
  /// for the whole sweep, so eligibility stays configuration-deterministic.
  bool mp_;
  std::vector<int> sched_;
  std::vector<PathStep> path_;
  std::vector<int> elig_stack_;   ///< dfs eligibility snapshots, all depths
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies (respawn)

  // Logical (undo-tracked) per-process state; w_'s own flags lag behind for
  // dirty processes, so the engine never consults them outside push_step.
  std::vector<std::uint64_t> proc_sig_;
  std::vector<std::uint8_t> decided_;
  std::vector<std::uint8_t> terminated_;
  std::vector<std::uint8_t> exists_;
  ValueVec outs_;
  bool relation_ok_ = true;  ///< cached task_->relation(inputs_, outs_)
  std::vector<std::vector<Value>> proc_log_;  ///< delivered results, per process
  // Per process: results its live frame consumed beyond the logical position,
  // innermost last. Invariant: concat(proc_log_[i], reverse(ghost_[i])) is
  // exactly the prefix the frame has consumed; LIFO push/pop preserves it.
  std::vector<std::vector<GhostStep>> ghost_;
};

// ---------------------------------------------------------------------------
// Reference engine: fresh world + full prefix replay per node. Kept as the
// semantic baseline the incremental engine is tested against.
// ---------------------------------------------------------------------------

class FullReplayExplorer {
 public:
  FullReplayExplorer(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                     const ValueVec& inputs, const ExploreConfig& cfg, ExploreContext& ctx)
      : task_(task), body_(body), inputs_(inputs), cfg_(cfg), ctx_(ctx) {
    bodies_.resize(static_cast<std::size_t>(task_->n_procs()));
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      bodies_[ii] = body_(i, inputs_[ii]);
    }
  }

  void dfs() {
    std::vector<int> sched;
    dfs(sched);
  }

  ExploreOutcome take_outcome() { return std::move(out_); }

 private:
  struct ReplayInfo {
    std::vector<int> eligible;  ///< admission window after the prefix, minus
                                ///< blocked-recv processes (substrate worlds)
    bool blocked = false;       ///< window live but every process blocked
    bool terminal = false;      ///< everyone arrived and finished
    bool relation_ok = true;
    std::uint64_t sig = 0;      ///< full-configuration signature
  };

  /// Deterministically replays `sched` (a sequence of C-index choices) and
  /// summarizes the resulting configuration.
  ReplayInfo replay(const std::vector<int>& sched) {
    World w = make_explore_world(cfg_);
    for (int i : cfg_.arrival) {
      w.spawn_c(i, bodies_[static_cast<std::size_t>(i)]);
    }
    w.attach_observer(cfg_.observer);
    AdmissionWindow win(cfg_.k, cfg_.arrival);
    win.refresh(w);

    // Per-process signature: fold the result of every delivered step.
    std::vector<std::uint64_t> proc_sig(static_cast<std::size_t>(task_->n_procs()), kFnvOffset);
    w.enable_trace();
    for (int c : sched) {
      w.step(cpid(c));
      win.refresh(w);
    }
    for (const auto& s : w.trace()) {
      auto& h = proc_sig[static_cast<std::size_t>(s.pid.index)];
      h = h * kFnvPrime + s.result.hash() + static_cast<std::uint64_t>(s.op);
    }

    ReplayInfo info;
    info.eligible = win.active();
    info.terminal = win.exhausted();
    if (w.substrate_set() && !info.eligible.empty()) {
      // Same blocking-recv rule as the incremental engine: frames here are
      // exactly at the logical position, so the pending op is authoritative.
      std::vector<int> elig;
      for (int c : info.eligible) {
        const PendingOp* op = w.pending_op(cpid(c));
        if (op != nullptr && op->kind == OpKind::kRecv &&
            w.substrate().peek_recv(w.memory(), op->addr).is_nil()) {
          continue;
        }
        elig.push_back(c);
      }
      info.blocked = elig.empty();
      info.eligible = std::move(elig);
    }
    ValueVec outs = w.output_vector();
    outs.resize(static_cast<std::size_t>(task_->n_procs()));
    info.relation_ok = task_->relation(inputs_, outs);
    std::uint64_t sig = w.state_hash();
    for (std::size_t i = 0; i < proc_sig.size(); ++i) {
      sig = sig * kFnvPrime + mix64(proc_sig[i]) +
            (w.exists(cpid(static_cast<int>(i))) && w.decided(cpid(static_cast<int>(i)))
                 ? kDecidedSalt
                 : 0u);
    }
    sig = sig * kFnvPrime + static_cast<std::uint64_t>(win.next_arrival());
    info.sig = sig;
    return info;
  }

  void dfs(std::vector<int>& sched) {
    if (ctx_.stopped()) return;
    if (!ctx_.charge()) {
      out_.budget_exhausted = true;
      ctx_.stop();
      return;
    }
    const ReplayInfo info = replay(sched);
    if (!info.relation_ok) {
      out_.ok = false;
      out_.violation = "task relation violated";
      out_.bad_schedule = sched;
      ctx_.stop();
      return;
    }
    if (info.terminal) {
      ++out_.terminal_runs;
      return;
    }
    if (static_cast<int>(sched.size()) >= cfg_.max_depth) {
      out_.ok = false;
      out_.violation = "no decision within step bound (possible non-termination)";
      out_.bad_schedule = sched;
      ctx_.stop();
      return;
    }
    if (cfg_.dedup && !ctx_.visit(info.sig)) return;
    if (info.blocked) {
      ++out_.blocked_runs;  // dead end: live window, all blocked on recv
      return;
    }
    for (int c : info.eligible) {
      sched.push_back(c);
      dfs(sched);
      sched.pop_back();
      if (ctx_.stopped()) return;
    }
  }

  TaskPtr task_;
  const std::function<ProcBody(int, Value)>& body_;
  ValueVec inputs_;
  ExploreConfig cfg_;
  ExploreContext& ctx_;
  ExploreOutcome out_;
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies
};

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

ExploreOutcome explore_sequential(const TaskPtr& task,
                                  const std::function<ProcBody(int, Value)>& body,
                                  const ValueVec& inputs, const ExploreConfig& cfg) {
  SequentialContext ctx(cfg.max_states, cfg.dedup_store);
  ExploreOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.engine == ExploreEngine::kFullReplay) {
    FullReplayExplorer e(task, body, inputs, cfg, ctx);
    e.dfs();
    out = e.take_outcome();
  } else {
    IncrementalExplorer e(task, body, inputs, cfg, ctx);
    e.dfs();
    out = e.take_outcome();
  }
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  out.states = ctx.counts().states;
  if (ctx.exhausted()) out.budget_exhausted = true;
  if (ctx.mem_exhausted()) {
    out.mem_exhausted = true;
    out.budget_exhausted = true;
  }
  out.stats.terminal_runs = out.terminal_runs;
  out.stats.blocked_runs = out.blocked_runs;
  harvest_context(out.stats, ctx.counts(), ctx.mem_exhausted(), ctx.store(), /*threads=*/1,
                  dt.count());
  return out;
}

/// Parallel frontier: a short deterministic sequential expansion splits the
/// tree into >= 4*threads un-entered subtree roots, which a work-stealing
/// pool then explores against a shared budget pool and a shared
/// first-insert-wins signature set. A CLEAN sweep's outcome is
/// thread-count-invariant (the expanded-signature closure does not depend on
/// insertion races — DESIGN.md gives the argument); any violation or budget
/// exhaustion makes the parallel numbers schedule-dependent, so those cases
/// rerun the sequential engine and return its canonical outcome — this
/// doubles as the "lexicographically smallest bad_schedule wins" merge rule,
/// since sequential DFS finds exactly that schedule first.
ExploreOutcome explore_parallel(const TaskPtr& task,
                                const std::function<ProcBody(int, Value)>& body,
                                const ValueVec& inputs, const ExploreConfig& cfg) {
  ParallelContext ctx(cfg.max_states, cfg.dedup_store);
  const std::size_t target = static_cast<std::size_t>(cfg.threads) * 4;
  const auto t0 = std::chrono::steady_clock::now();

  ExploreOutcome expansion_out;
  std::vector<std::vector<int>> roots;
  {
    WorkerContext probe_ctx(ctx);
    IncrementalExplorer probe(task, body, inputs, cfg, probe_ctx);
    std::deque<std::vector<int>> queue;
    queue.emplace_back();
    while (!queue.empty() && queue.size() < target && !ctx.stopped()) {
      std::vector<int> prefix = std::move(queue.front());
      queue.pop_front();
      probe.move_to(prefix);
      if (probe.enter_node() == IncrementalExplorer::Node::kExpand) {
        for (int c : probe.eligible_children()) {
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
        e.seek(roots[i]);
        e.dfs();
        parts[i] = e.take_outcome();
      });
    }
    WorkStealingPool::run(std::move(jobs), cfg.threads, &pool_stats);
  }

  bool clean = expansion_out.ok;
  for (const ExploreOutcome& p : parts) clean = clean && p.ok;
  if (!clean || ctx.exhausted() || ctx.store().mem_exhausted()) {
    // Canonical deterministic outcome (identical to threads == 1).
    ExploreConfig seq = cfg;
    seq.threads = 1;
    return explore_sequential(task, body, inputs, seq);
  }

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
  const SweepCounts totals = ctx.totals();
  out.states = totals.states;
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  out.stats.terminal_runs = out.terminal_runs;
  out.stats.blocked_runs = out.blocked_runs;
  out.stats.pool_steals = pool_stats.steals;
  harvest_context(out.stats, totals, ctx.store().mem_exhausted(), &ctx.store(), cfg.threads,
                  dt.count());
  return out;
}

}  // namespace

ExploreOutcome explore_k_concurrent(const TaskPtr& task,
                                    const std::function<ProcBody(int, Value)>& body,
                                    const ValueVec& inputs, const ExploreConfig& cfg) {
  if (cfg.threads > 1 && cfg.engine == ExploreEngine::kIncremental) {
    return explore_parallel(task, body, inputs, cfg);
  }
  return explore_sequential(task, body, inputs, cfg);
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
    if (!o.ok) break;
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
