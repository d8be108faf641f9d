#include "sim/schedule.hpp"

#include <algorithm>
#include <exception>
#include <utility>

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

namespace {

/// The one drive loop: the only function body that calls both
/// Scheduler::next and World::step. drive_with_faults and rehearse_kills
/// differ only in `stop_when`, asked after the stop rule with the number of
/// S-kills that could still land: crash points not yet due, armed trigger
/// kills, and triggers that have not fired.
template <class StopWhen>
PlanDriveResult drive_loop(World& w, Scheduler& sched, std::int64_t max_steps,
                           DriveFaults faults, StopWhen stop_when) {
  std::sort(faults.crashes.begin(), faults.crashes.end(),
            [](const CrashPoint& a, const CrashPoint& b) { return a.step_index < b.step_index; });
  // Stable: same-step charges keep their order (a sever before its heal).
  std::stable_sort(faults.links.begin(), faults.links.end(),
                   [](const LinkFaultPoint& a, const LinkFaultPoint& b) {
                     return a.step_index < b.step_index;
                   });
  std::size_t next_crash = 0;
  std::size_t next_link = 0;

  struct TrigState {
    const CrashTrigger* trig;
    int remaining;
  };
  std::vector<TrigState> trig;
  trig.reserve(faults.triggers.size());
  for (const auto& t : faults.triggers) trig.push_back({&t, std::max(1, t.occurrence)});
  std::size_t unfired = trig.size();
  std::vector<CrashPoint> armed;
  if (!trig.empty()) w.enable_trace();  // trigger matching reads the trace
  std::size_t trace_seen = w.trace().size();

  PlanDriveResult out;
  DriveResult& r = out.drive;
  // Appends in loop order, and r.steps never decreases, so applied and
  // applied_at stay aligned and sorted by step index.
  const auto kill = [&](int qi) {
    if (qi < 0 || qi >= w.pattern().n()) return;  // no such S-process here
    if (!w.pattern().alive(qi, w.now())) return;  // already down: no-op
    w.inject_crash(qi);
    out.applied.push_back(CrashPoint{r.steps, qi});
    out.applied_at.push_back(w.now());
  };

  for (;;) {
    for (; next_crash < faults.crashes.size() &&
           faults.crashes[next_crash].step_index <= r.steps;
         ++next_crash) {
      kill(faults.crashes[next_crash].s_index);
    }
    for (; next_link < faults.links.size() && faults.links[next_link].step_index <= r.steps;
         ++next_link) {
      const LinkFaultPoint& p = faults.links[next_link];
      try {
        w.substrate().apply_link_fault(RegAddr(p.link), p.kind, p.amount);
        out.applied_links.push_back(LinkFaultPoint{r.steps, p.link, p.kind, p.amount});
      } catch (const std::exception&) {
        // A link this world lacks, or a substrate without faultable links.
      }
    }
    for (std::size_t i = 0; i < armed.size();) {
      if (armed[i].step_index <= r.steps) {
        kill(armed[i].s_index);
        armed.erase(armed.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if (w.num_c() > 0 && w.all_c_decided()) {
      r.all_c_decided = true;
      return out;
    }
    if (r.steps >= max_steps) {
      r.budget_exhausted = true;
      return out;
    }
    if (stop_when(faults.crashes.size() - next_crash + armed.size() + unfired)) return out;
    const auto pid = sched.next(w);
    if (!pid) {
      r.exhausted = true;
      return out;
    }
    w.step(*pid);
    ++r.steps;

    if (unfired == 0) continue;
    const Trace& tr = w.trace();
    for (; trace_seen < tr.size(); ++trace_seen) {
      const StepRecord& rec = tr[trace_seen];
      if (rec.null_step || !rec.pid.is_s()) continue;
      for (auto& ts : trig) {
        if (ts.remaining <= 0 || rec.op != ts.trig->op) continue;
        const std::string& name = rec.addr_name();
        if (name.rfind(ts.trig->reg_prefix, 0) != 0) continue;
        if (--ts.remaining == 0) {
          // The match was step index r.steps - 1; the kill lands `delay`
          // steps after it (delay == 1: before the very next step executes).
          armed.push_back(CrashPoint{r.steps - 1 + std::max(1, ts.trig->delay), rec.pid.index});
          ++out.triggers_fired;
          --unfired;
        }
      }
    }
  }
}

}  // namespace

DriveResult drive(World& w, Scheduler& sched, std::int64_t max_steps) {
  return drive_with_faults(w, sched, max_steps, {}).drive;
}

PlanDriveResult drive_with_faults(World& w, Scheduler& sched, std::int64_t max_steps,
                                  DriveFaults faults) {
  return drive_loop(w, sched, max_steps, std::move(faults), [](std::size_t) { return false; });
}

PlanDriveResult rehearse_kills(World& w, Scheduler& sched, std::int64_t max_steps,
                               DriveFaults faults) {
  return drive_loop(w, sched, max_steps, std::move(faults),
                    [](std::size_t pending_kills) { return pending_kills == 0; });
}

}  // namespace efd
