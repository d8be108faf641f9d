// Adversarial schedulers: targeted worst-case interleavings.
//
// The fair and random schedulers exercise the common case; impossibility-
// flavored experiments need schedules crafted against an algorithm's
// structure. Two reusable adversaries:
//
//  * LockstepScheduler — single-steps a chosen set of processes in strict
//    rotation. Against ballot/flag protocols this maximizes preemption
//    (paxos livelock, naive-renaming flipping); it is the schedule family
//    behind the Fig. 1 hunt.
//
//  * SuppressScheduler — wraps another scheduler but refuses to schedule a
//    (dynamically chosen) set of processes: crash-like starvation of
//    C-processes, which the model permits (a C-process may simply stop
//    taking steps) and wait-freedom must tolerate.
#pragma once

#include <functional>
#include <vector>

#include "sim/schedule.hpp"

namespace efd {

/// Strict single-step rotation over a fixed pid list (skips pids that are
/// crashed or terminated; exhausted when none can step).
class LockstepScheduler final : public Scheduler {
 public:
  explicit LockstepScheduler(std::vector<Pid> pids) : pids_(std::move(pids)) {}

  [[nodiscard]] std::optional<Pid> next(const World& w) override {
    for (std::size_t tries = 0; tries < pids_.size(); ++tries) {
      const Pid cand = pids_[cursor_ % pids_.size()];
      ++cursor_;
      if (w.alive(cand) && !w.terminated(cand)) return cand;
    }
    return std::nullopt;
  }

 private:
  std::vector<Pid> pids_;
  std::size_t cursor_ = 0;
};

/// Filters an inner scheduler: pids for which `suppressed` returns true are
/// never scheduled. The inner scheduler is polled (bounded retries) until it
/// yields an allowed pid; if the polls run dry while the world still has a
/// schedulable non-suppressed process, that process is scheduled directly.
/// Without the fallback a fair inner scheduler over a mostly-suppressed pid
/// set could spuriously return nullopt — reported upstream as schedule
/// exhaustion even though eligible processes remained (e.g. an inner
/// LockstepScheduler whose whole rotation is suppressed never proposes the
/// eligible outsider at all).
class SuppressScheduler final : public Scheduler {
 public:
  SuppressScheduler(Scheduler& inner, std::function<bool(Pid, const World&)> suppressed)
      : inner_(inner), suppressed_(std::move(suppressed)) {}

  [[nodiscard]] std::optional<Pid> next(const World& w) override {
    for (int tries = 0; tries < 256; ++tries) {
      const auto pid = inner_.next(w);
      if (!pid) return std::nullopt;
      if (!suppressed_(*pid, w)) return pid;
    }
    // The inner scheduler kept proposing suppressed pids. Consult the world
    // directly (rotating for fairness) before declaring exhaustion.
    const std::vector<Pid>& pids = w.pids();
    for (std::size_t tries = 0; tries < pids.size(); ++tries) {
      const Pid cand = pids[fallback_cursor_ % pids.size()];
      ++fallback_cursor_;
      if (w.alive(cand) && !w.terminated(cand) && !suppressed_(cand, w)) return cand;
    }
    return std::nullopt;
  }

 private:
  Scheduler& inner_;
  std::function<bool(Pid, const World&)> suppressed_;
  std::size_t fallback_cursor_ = 0;
};

}  // namespace efd
