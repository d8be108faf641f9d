// E2 (§2.2): with n S-processes and NO failure detector, (Π, n)-set
// agreement is solvable in every environment. Table: distinct decided values
// (must be <= live relayers) and steps, across fault loads.
#include "bench_common.hpp"

EFD_BENCH_JSON("E2")

namespace efd {
namespace {

void E2_NoAdviceSetAgreement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int faults = static_cast<int>(state.range(1));
  std::int64_t steps = 0;
  std::size_t distinct = 0;
  for (auto _ : state) {
    const FailurePattern f = Environment(n, n - 1).sample(17, faults, 10);
    TrivialFd trivial;
    World w(f, trivial.history(f, 17));
    const KsaConfig cfg{"nsa", n, n};
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_nsa_noadvice_client(cfg, Value(i)));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_nsa_noadvice_server(cfg));
    RandomScheduler rs(17);
    const auto r = drive(w, rs, 500000);
    if (!r.all_c_decided) throw std::runtime_error("E2: run did not decide");
    steps = r.steps;
    distinct = bench::distinct_decisions(w, n).size();
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["distinct"] = static_cast<double>(distinct);
  bench::json_run(state, "E2_NoAdviceSetAgreement", {n, faults});

  bench::table_header("E2 (sec. 2.2): (Pi,n)-set agreement with NO detector",
                      "n   faults  distinct-decided  bound(n)  steps");
  efd::bench::row("%-3d %-7d %-17zu %-9d %lld", n, faults, distinct, n,
              static_cast<long long>(steps));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E2_NoAdviceSetAgreement)
    ->ArgsProduct({{3, 5, 8}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);
