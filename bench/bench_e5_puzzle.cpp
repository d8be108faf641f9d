// E5 (Thm. 7, "the puzzle"): a detector solving (U, k)-set agreement among
// ONE set of k+1 processes solves (Π, k)-set agreement among all n. Table:
// distinct decisions (<= k) and simulation cost vs (n, k).
#include "bench_common.hpp"

EFD_BENCH_JSON("E5")

namespace efd {
namespace {

void E5_Booster(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  std::int64_t steps = 0;
  std::size_t distinct = 0;
  double total_steps = 0;
  std::size_t footprint = 0;
  std::size_t writes = 0;
  for (auto _ : state) {
    const FailurePattern f = Environment(n, n - 1).sample(11, 1, 10);
    VectorOmegaK vo(k, 40);
    World w(f, vo.history(f, 11));
    const BoosterConfig cfg{"boost", n, k};
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_booster_simulator(cfg, Value(i)));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_booster_server(cfg));
    RandomScheduler rs(11);
    const auto r = drive(w, rs, 20000000);
    if (!r.all_c_decided) throw std::runtime_error("E5: booster run did not decide");
    steps = r.steps;
    total_steps += static_cast<double>(r.steps);
    footprint = w.memory().footprint();
    writes = w.memory().write_count();
    distinct = bench::distinct_decisions(w, n).size();
    if (static_cast<int>(distinct) > k) throw std::runtime_error("E5: k bound broken");
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["distinct"] = static_cast<double>(distinct);
  bench::perf_counters(state, total_steps, footprint, writes);
  bench::json_run(state, "E5_Booster", {n, k});

  bench::table_header(
      "E5 (Thm. 7): boosting (U,k)-agreement (|U| = k+1) to all n processes",
      "n   k   inner-scope  distinct(<=k)  steps");
  efd::bench::row("%-3d %-3d %-12d %-14zu %lld", n, k, k + 1, distinct,
              static_cast<long long>(steps));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E5_Booster)
    ->ArgsProduct({{3, 4, 5, 6}, {1, 2}})
    ->Args({5, 3})
    ->Args({6, 4})
    ->Unit(benchmark::kMillisecond);
