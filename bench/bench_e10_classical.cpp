// E10 (Prop. 3 / Prop. 5): EFD solvability vs classical solvability.
// Table: the same EFD algorithm run under fair scheduling (EFD runs) and
// under the personified scheduler (classical runs, p_i dies with q_i) — the
// task stays satisfied in both; in personified runs only processes with a
// correct S-counterpart are guaranteed to decide.
#include "bench_common.hpp"

#include "core/efd_system.hpp"

namespace efd {
namespace {

EfdSetup ksa_setup(int n, int k, int faults, std::uint64_t seed) {
  EfdSetup s;
  s.task = std::make_shared<SetAgreementTask>(n, k);
  s.detector = std::make_shared<VectorOmegaK>(k, 40);
  s.pattern = Environment(n, n - 1).sample(seed, faults, 15);
  s.seed = seed;
  s.inputs.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) s.inputs[static_cast<std::size_t>(i)] = Value(i);
  const KsaConfig cfg{"ksa", n, k};
  s.c_body = [cfg](int, Value input) { return make_ksa_client(cfg, input); };
  s.s_body = [cfg](int) { return make_ksa_server(cfg); };
  return s;
}

void efd_vs_classical(int n, int k, int faults) {
  const auto setup = ksa_setup(n, k, faults, 21);
  const EfdRunResult fair = run_efd_fair(setup, 3000000);
  PersonifiedScheduler ps;
  const EfdRunResult personified = run_efd(ksa_setup(n, k, faults, 21), ps, 300000);
  const int correct_cnt = setup.pattern.num_correct();
  if (!fair.all_decided || !fair.satisfied || !personified.satisfied) {
    throw std::runtime_error("E10: a run violated the task");
  }
  int personified_decided = 0;
  for (const auto& o : personified.outputs) {
    if (!o.is_nil()) ++personified_decided;
  }
  bench::record("E10_EfdVsClassical", {n, k, faults},
                {{"fair_decided", n},
                 {"personified_decided", personified_decided},
                 {"fair_steps", fair.stats.steps},
                 {"fair_null_steps", fair.stats.null_steps}});
  bench::row("%-3d %-3d %-7d %-12d %-18d %-10d %s", n, k, faults, n, personified_decided,
             correct_cnt, (fair.satisfied && personified.satisfied) ? "yes" : "NO");
}

void run() {
  bench::table_header(
      "E10 (Prop. 3/5): EFD runs vs personified (classical) runs, KSA algorithm",
      "n   k   faults  EFD-decided  classical-decided  correct-S  both-satisfied");
  efd_vs_classical(3, 2, 1);
  efd_vs_classical(4, 2, 2);
  efd_vs_classical(5, 3, 2);
  efd_vs_classical(5, 2, 4);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E10", efd::run, argc, argv); }
