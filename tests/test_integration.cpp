// Cross-module integration tests: the Thm. 9 double simulation end-to-end,
// Prop. 2's wait-free equivalence, and colorless-task coincidences (Prop. 5).
#include <gtest/gtest.h>

#include <set>

#include "algo/double_sim.hpp"
#include "algo/one_concurrent.hpp"
#include "algo/set_agreement_antiomega.hpp"
#include "algo/sim_program.hpp"
#include "core/efd_system.hpp"
#include "fd/detectors.hpp"
#include "sim/schedule.hpp"
#include "tasks/identity.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

SimProgramPtr one_concurrent_program(const TaskPtr& task, const std::string& ns) {
  return std::make_shared<ReplayProgram>([task, ns](int index, const Value& input, Context& ctx) {
    return make_one_concurrent(task, input, ns)(ctx);
    (void)index;
  });
}

// Thm. 9 end-to-end: k-set agreement (k-concurrently solvable by the generic
// solver) is solved by ALL n processes with →Ωk advice, via the k-codes
// simulation of BG-simulators of the task algorithm.
TEST(Theorem9, DoubleSimulationSolvesKSetAgreement) {
  const int n = 3, k = 2;
  for (std::uint64_t seed : {1u, 4u}) {
    const FailurePattern f = Environment(n, n - 1).sample(seed, 1, 10);
    VectorOmegaK vo(k, 40);
    World w(f, vo.history(f, seed));

    auto task = std::make_shared<SetAgreementTask>(n, k);
    Thm9Config cfg;
    cfg.ns = "t9";
    cfg.n = n;
    cfg.k = k;
    cfg.task_code = one_concurrent_program(task, "t9task");

    for (int i = 0; i < n; ++i) w.spawn_c(i, make_thm9_simulator(cfg, Value(i)));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_thm9_server(cfg));
    RandomScheduler rs(seed + 3);
    const auto r = drive(w, rs, 20000000);
    ASSERT_TRUE(r.all_c_decided) << "seed " << seed;

    std::set<std::int64_t> vals;
    ValueVec out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = w.decision(cpid(i));
      vals.insert(w.decision(cpid(i)).as_int());
    }
    EXPECT_LE(static_cast<int>(vals.size()), k) << "seed " << seed;
    ValueVec in{Value(0), Value(1), Value(2)};
    EXPECT_TRUE(task->relation(in, out)) << "seed " << seed;
  }
}

// Thm. 9 with a COLORED task: identity is n-concurrently solvable, so with
// k = n the double simulation must hand every process its own output.
TEST(Theorem9, ColoredTaskKeepsOwnership) {
  const int n = 2, k = 2;
  FailurePattern f(n);
  VectorOmegaK vo(k, 20);
  World w(f, vo.history(f, 8));

  auto task = std::make_shared<IdentityTask>(n);
  Thm9Config cfg;
  cfg.ns = "t9";
  cfg.n = n;
  cfg.k = k;
  cfg.task_code = one_concurrent_program(task, "t9task");

  for (int i = 0; i < n; ++i) w.spawn_c(i, make_thm9_simulator(cfg, Value(100 + i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_thm9_server(cfg));
  RandomScheduler rs(5);
  const auto r = drive(w, rs, 20000000);
  ASSERT_TRUE(r.all_c_decided);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(w.decision(cpid(i)).as_int(), 100 + i) << "p" << (i + 1) << " lost its own output";
  }
}

// Prop. 2: with n >= m S-processes and the trivial detector, EFD solvability
// coincides with wait-free solvability — a wait-free task solves with no
// S-process help, and C-processes emulating the S-part solve it too.
TEST(Prop2, WaitFreeTaskNeedsNoAdvice) {
  const int n = 3;
  auto task = std::make_shared<IdentityTask>(n);
  EfdSetup s;
  s.task = task;
  s.detector = std::make_shared<TrivialFd>();
  s.pattern = Environment(n, n - 1).sample(2, 2, 5);  // crashes are irrelevant
  s.seed = 2;
  s.inputs = task->sample_input(7);
  s.c_body = [task](int, Value input) { return make_one_concurrent(task, input, "id"); };
  const auto r = run_efd_fair(s, 50000);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.satisfied);
}

// Prop. 5 flavor: for the colorless k-set agreement, an EFD solution run in
// personified mode (classical solvability) still satisfies the task.
TEST(Prop5, ColorlessCoincidence) {
  const int n = 3, k = 2;
  auto task = std::make_shared<SetAgreementTask>(n, k);
  EfdSetup s;
  s.task = task;
  s.detector = std::make_shared<VectorOmegaK>(k, 30);
  FailurePattern f(n);
  f.crash(2, 12);
  s.pattern = f;
  s.seed = 6;
  s.inputs = ValueVec{Value(0), Value(1), Value(2)};
  const KsaConfig cfg{"ksa", n, k};
  s.c_body = [cfg](int, Value input) { return make_ksa_client(cfg, input); };
  s.s_body = [cfg](int) { return make_ksa_server(cfg); };

  PersonifiedScheduler ps;
  const auto r = run_efd(s, ps, 500000);
  EXPECT_TRUE(r.satisfied);
  for (int i = 0; i < n; ++i) {
    if (f.correct(i)) {
      EXPECT_FALSE(r.outputs[static_cast<std::size_t>(i)].is_nil());
    }
  }
}

}  // namespace
}  // namespace efd
