#include "core/efd_system.hpp"

#include <stdexcept>

namespace efd {

EfdRunResult run_efd(const EfdSetup& setup, Scheduler& sched, std::int64_t max_steps, bool trace) {
  if (!setup.task || !setup.detector || !setup.c_body) {
    throw std::invalid_argument("run_efd: task, detector and c_body are required");
  }
  const int n = setup.task->n_procs();
  if (static_cast<int>(setup.inputs.size()) != n) {
    throw std::invalid_argument("run_efd: input vector arity mismatch");
  }

  World w(setup.pattern, setup.detector->history(setup.pattern, setup.seed));
  for (int i = 0; i < n; ++i) {
    if (!setup.inputs[static_cast<std::size_t>(i)].is_nil()) {
      w.spawn_c(i, setup.c_body(i, setup.inputs[static_cast<std::size_t>(i)]));
    }
  }
  if (setup.s_body) {
    for (int i = 0; i < setup.pattern.n(); ++i) w.spawn_s(i, setup.s_body(i));
  }
  if (trace) w.enable_trace();

  const DriveResult r = drive(w, sched, max_steps);

  EfdRunResult out;
  out.steps = r.steps;
  out.budget_exhausted = r.budget_exhausted;
  out.stats = w.run_stats();
  out.all_decided = w.all_c_decided();
  out.outputs = w.output_vector();
  out.outputs.resize(static_cast<std::size_t>(n));  // ⊥-pad non-participants
  out.satisfied = setup.task->relation(setup.inputs, out.outputs);
  if (trace) out.max_concurrency = max_concurrency(w.trace());
  return out;
}

EfdRunResult run_efd_fair(const EfdSetup& setup, std::int64_t max_steps, bool trace) {
  RoundRobinScheduler rr;
  return run_efd(setup, rr, max_steps, trace);
}

std::optional<Pid> PersonifiedScheduler::next(const World& w) {
  const std::vector<Pid>& pids = w.pids();
  for (std::size_t tries = 0; tries < pids.size(); ++tries) {
    const Pid cand = pids[cursor_ % pids.size()];
    ++cursor_;
    if (!w.alive(cand) || w.terminated(cand)) continue;
    if (cand.is_c() && cand.index < w.pattern().n() && !w.alive(spid(cand.index))) {
      continue;  // p_i dies with q_i (conventional-model coupling)
    }
    return cand;
  }
  return std::nullopt;
}

}  // namespace efd
