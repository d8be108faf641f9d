#include "support/explore_oracle.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/explore_sig.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

class FullReplayExplorer {
 public:
  FullReplayExplorer(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                     const ValueVec& inputs, const ExploreConfig& cfg, bool dedup)
      : task_(task),
        inputs_(inputs),
        cfg_(cfg),
        dedup_(dedup),
        budget_(std::max<std::int64_t>(cfg.max_states, 0)) {
    bodies_.resize(static_cast<std::size_t>(task_->n_procs()));
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      bodies_[ii] = body(i, inputs_[ii]);
    }
  }

  ExploreOutcome run() {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<int> sched;
    dfs(sched);
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    ExploreStats& stats = out_.stats;
    stats.states = out_.states;
    stats.terminal_runs = out_.terminal_runs;
    stats.blocked_runs = out_.blocked_runs;
    stats.dedup_queries = queries_;
    stats.dedup_misses = static_cast<std::int64_t>(seen_.size());
    stats.dedup_hits = queries_ - stats.dedup_misses;
    stats.threads = 1;
    stats.elapsed_s = dt.count();
    stats.states_per_s = dt.count() > 0 ? static_cast<double>(out_.states) / dt.count() : 0;
    return std::move(out_);
  }

 private:
  struct ReplayInfo {
    std::vector<int> eligible;  ///< admission window after the prefix, minus
                                ///< blocked-recv processes (substrate worlds)
    bool blocked = false;       ///< window live but every process blocked
    bool terminal = false;      ///< everyone arrived and finished
    bool relation_ok = true;
    std::uint64_t sig = 0;      ///< full-configuration signature
  };

  /// Deterministically replays `sched` (a sequence of C-index choices) in a
  /// fresh world and summarizes the resulting configuration.
  ReplayInfo replay(const std::vector<int>& sched) {
    World w = cfg_.world_factory ? cfg_.world_factory() : World::failure_free(1);
    for (int i : cfg_.arrival) {
      w.spawn_c(i, bodies_[static_cast<std::size_t>(i)]);
    }
    w.attach_observer(cfg_.observer);
    AdmissionWindow win(cfg_.k, cfg_.arrival);
    win.refresh(w);

    w.enable_trace();
    for (int c : sched) {
      w.step(cpid(c));
      win.refresh(w);
    }
    std::vector<std::uint64_t> chain(static_cast<std::size_t>(task_->n_procs()),
                                     kFnv1aTruncatedBasis);
    for (const auto& s : w.trace()) {
      auto& h = chain[static_cast<std::size_t>(s.pid.index)];
      h = explore_sig::chain_step(h, s.op, s.result);
    }

    ReplayInfo info;
    info.eligible = win.active();
    info.terminal = win.exhausted();
    if (w.substrate_set() && !info.eligible.empty()) {
      // Blocking-recv rule: frames here are exactly at the logical position,
      // so the pending op is authoritative.
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
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const Pid p = cpid(static_cast<int>(i));
      sig = explore_sig::fold_proc(sig, chain[i], w.exists(p) && w.decided(p));
    }
    info.sig = explore_sig::fold_arrival(sig, win.next_arrival());
    return info;
  }

  void fail(const char* msg, const std::vector<int>& sched) {
    out_.ok = false;
    out_.violation = msg;
    out_.bad_schedule = sched;
    stopped_ = true;
  }

  void dfs(std::vector<int>& sched) {
    if (stopped_) return;
    // The over-budget state is counted: an exhausted sweep reports
    // max_states + 1 states.
    if (++out_.states > budget_) {
      out_.budget_exhausted = true;
      stopped_ = true;
      return;
    }
    const ReplayInfo info = replay(sched);
    if (!info.relation_ok) {
      fail("task relation violated", sched);
      return;
    }
    if (info.terminal) {
      ++out_.terminal_runs;
      return;
    }
    if (static_cast<int>(sched.size()) >= cfg_.max_depth) {
      fail("no decision within step bound (possible non-termination)", sched);
      return;
    }
    if (dedup_) {
      ++queries_;
      if (!seen_.insert(info.sig).second) return;
    }
    if (info.blocked) {
      ++out_.blocked_runs;  // dead end: live window, all blocked on recv
      return;
    }
    for (int c : info.eligible) {
      sched.push_back(c);
      dfs(sched);
      sched.pop_back();
      if (stopped_) return;
    }
  }

  TaskPtr task_;
  ValueVec inputs_;
  const ExploreConfig& cfg_;
  bool dedup_;
  std::int64_t budget_;
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies
  ExploreOutcome out_;
  bool stopped_ = false;
  std::int64_t queries_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace

ExploreOutcome explore_full_replay(const TaskPtr& task,
                                   const std::function<ProcBody(int, Value)>& body,
                                   const ValueVec& inputs, const ExploreConfig& cfg,
                                   bool dedup) {
  return FullReplayExplorer(task, body, inputs, cfg, dedup).run();
}

}  // namespace efd
