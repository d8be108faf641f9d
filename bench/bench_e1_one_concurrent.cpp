// E1 (Prop. 1): the generic 1-concurrent solver decides every menu task;
// table: steps-to-decide per task and system size under 1-concurrency.
#include "bench_common.hpp"

namespace efd {
namespace {

// The world's own telemetry (RunStats, sim/stats.hpp) plus the register
// footprint — no ad-hoc counter struct.
struct E1Run {
  RunStats stats;
  std::size_t footprint = 0;
};

E1Run run_one_concurrent(const TaskPtr& task, std::uint64_t seed) {
  const int n = task->n_procs();
  const ValueVec in = task->sample_input(seed);
  const auto arrival = Task::participants(in);
  World w = World::failure_free(1);
  for (int i : arrival) {
    w.spawn_c(i, make_one_concurrent(task, in[static_cast<std::size_t>(i)], "p1"));
  }
  KConcurrencyScheduler sched(1, arrival, 0);
  const auto r = drive(w, sched, 1000000);
  ValueVec out = w.output_vector();
  out.resize(static_cast<std::size_t>(n));
  if (!r.all_c_decided || !task->relation(in, out)) {
    throw std::runtime_error("E1: 1-concurrent run failed for " + task->name());
  }
  return {w.run_stats(), w.memory().footprint()};
}

TaskPtr menu_task(int which, int n) {
  switch (which) {
    case 0:
      return std::make_shared<ConsensusTask>(n);
    case 1:
      return std::make_shared<SetAgreementTask>(n, 2);
    case 2:
      return std::make_shared<RenamingTask>(n, n - 1, n - 1);  // strong (n-1)-renaming
    case 3:
      return std::make_shared<WeakSymmetryBreakingTask>(n);
    default:
      return std::make_shared<IdentityTask>(n);
  }
}

void run() {
  bench::table_header("E1 (Prop. 1): every task is 1-concurrently solvable",
                      "task                                   n   steps-to-all-decided");
  for (const int n : {3, 5, 8}) {
    for (int which = 0; which < 5; ++which) {
      const TaskPtr task = menu_task(which, n);
      const E1Run rs = run_one_concurrent(task, 1);
      bench::record("E1_OneConcurrent", {which, n},
                    {{"steps", rs.stats.steps},
                     {"decides", rs.stats.decides},
                     {"null_steps", rs.stats.null_steps},
                     {"n", n},
                     {"footprint", rs.footprint},
                     {"writes", rs.stats.writes}});
      bench::row("%-38s %-3d %lld", task->name().c_str(), n,
                 static_cast<long long>(rs.stats.steps));
    }
  }
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E1", efd::run, argc, argv); }
