// E11 (Fig. 3): the 1-resilient wrapper gates ANY renaming algorithm so the
// induced inner run is 2-concurrent. Table: participants vs decisions, the
// names stay within the wrapped algorithm's 2-concurrent bound (j+1 for
// Fig. 4), and wrapper overhead in steps.
#include "bench_common.hpp"

#include "algo/renaming_1resilient.hpp"

EFD_BENCH_JSON("E11")

namespace efd {
namespace {

void E11_OneResilientWrapper(benchmark::State& state) {
  const int j = static_cast<int>(state.range(0));
  const int participants = static_cast<int>(state.range(1));  // j or j-1
  const int n = j + 2;
  std::int64_t steps = 0;
  std::int64_t max_name = 0;
  bool unique = true;
  for (auto _ : state) {
    World w = World::failure_free(1);
    const OneResilientConfig cfg{"wrap", n, j};
    const RenamingConfig inner_cfg{"wren", n};
    auto inner = std::make_shared<ReplayProgram>(
        [inner_cfg](int, const Value& input, Context& ctx) {
          return make_renaming_kconc(inner_cfg, input)(ctx);
        });
    for (int i = 0; i < participants; ++i) {
      w.spawn_c(i, make_one_resilient_wrapper(cfg, inner, Value(100 + i)));
    }
    RoundRobinScheduler rr;
    const auto r = drive(w, rr, 20000000);
    if (!r.all_c_decided) throw std::runtime_error("E11: wrapper run did not decide");
    steps = r.steps;
    std::set<std::int64_t> names;
    max_name = 0;
    for (int i = 0; i < participants; ++i) {
      const auto name = w.decision(cpid(i)).as_int();
      names.insert(name);
      max_name = std::max(max_name, name);
    }
    unique = static_cast<int>(names.size()) == participants;
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["max_name"] = static_cast<double>(max_name);
  bench::json_run(state, "E11_OneResilientWrapper", {j, participants});

  bench::table_header("E11 (Fig. 3): 1-resilient wrapper around Fig. 4 renaming",
                      "j   participants  max-name  2-conc-bound(j+1)  unique  steps");
  efd::bench::row("%-3d %-13d %-9lld %-18d %-7s %lld", j, participants,
              static_cast<long long>(max_name), j + 1, unique ? "yes" : "NO",
              static_cast<long long>(steps));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E11_OneResilientWrapper)
    ->Args({3, 3})
    ->Args({3, 2})
    ->Args({4, 4})
    ->Args({4, 3})
    ->Args({5, 5})
    ->Unit(benchmark::kMillisecond);
