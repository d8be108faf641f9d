#include "sim/schedule.hpp"

#include <algorithm>

namespace efd {
namespace {

bool eligible(const World& w, Pid pid) {
  if (!w.alive(pid)) return false;
  // Terminated processes only take null steps; scheduling them is legal but
  // useless, so fair schedulers skip them.
  return !w.terminated(pid);
}

}  // namespace

std::optional<Pid> RoundRobinScheduler::next(const World& w) {
  const std::vector<Pid>& pids = w.pids();
  if (pids.empty()) return std::nullopt;
  for (std::size_t tries = 0; tries < pids.size(); ++tries) {
    const Pid cand = pids[cursor_ % pids.size()];
    ++cursor_;
    if (eligible(w, cand)) return cand;
  }
  return std::nullopt;
}

std::optional<Pid> RandomScheduler::next(const World& w) {
  pool_.clear();
  for (const Pid pid : w.pids()) {
    if (eligible(w, pid)) pool_.push_back(pid);
  }
  if (pool_.empty()) return std::nullopt;
  return pool_[static_cast<std::size_t>(rng_.below(pool_.size()))];
}

std::optional<Pid> KConcurrencyScheduler::next(const World& w) {
  // Retire finished C-processes, admit arrivals (shared AdmissionWindow
  // semantics — identical to the exhaustive explorers').
  window_.refresh(w);
  const std::vector<int>& active_ = window_.active();

  // Interleave: s_stride_ S-steps, then one C-step, round-robin on each side.
  const int ns = w.num_s();
  if (s_budget_ > 0 && ns > 0) {
    for (int tries = 0; tries < ns; ++tries) {
      const int qi = static_cast<int>(s_cursor_ % static_cast<std::size_t>(ns));
      ++s_cursor_;
      const Pid pid = spid(qi);
      if (w.exists(pid) && eligible(w, pid)) {
        --s_budget_;
        return pid;
      }
    }
    s_budget_ = 0;  // no eligible S-process; fall through to C
  }

  if (!active_.empty()) {
    const int ci = active_[c_cursor_ % active_.size()];
    ++c_cursor_;
    s_budget_ = s_stride_;
    return cpid(ci);
  }

  // No undecided C-process left; keep S-processes running if any remain
  // (callers typically stop via all_c_decided()).
  for (int tries = 0; tries < ns; ++tries) {
    const int qi = static_cast<int>(s_cursor_ % static_cast<std::size_t>(std::max(ns, 1)));
    ++s_cursor_;
    const Pid pid = spid(qi);
    if (w.exists(pid) && eligible(w, pid)) return pid;
  }
  return std::nullopt;
}

DriveResult drive(World& w, Scheduler& sched, std::int64_t max_steps) {
  DriveResult r;
  for (;;) {
    if (w.num_c() > 0 && w.all_c_decided()) {
      r.all_c_decided = true;
      return r;
    }
    if (r.steps >= max_steps) {
      r.budget_exhausted = true;
      return r;
    }
    const auto pid = sched.next(w);
    if (!pid) {
      r.exhausted = true;
      return r;
    }
    w.step(*pid);
    ++r.steps;
  }
}

}  // namespace efd
