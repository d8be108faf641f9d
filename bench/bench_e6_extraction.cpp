// E6 (Thm. 8 / Fig. 1): extracting ¬Ωk from a detector that solves k-set
// agreement. Table: does the emulated history pass the ¬Ωk spec check, when
// does it stabilize, and how much local simulation the hunt spends.
#include "bench_common.hpp"

EFD_BENCH_JSON("E6")

namespace efd {
namespace {

struct E6Result {
  bool anti_ok = false;
  Time horizon = 0;
  Time stable_from = -1;  ///< first time after which the safe process never appears
};

E6Result run_extraction(int n, int k, int faults, std::uint64_t seed, std::int64_t steps) {
  FailurePattern f(n);
  // Crash `faults` high-indexed processes early so the hunt's witness is
  // reachable within the bench budget.
  for (int c = 0; c < faults; ++c) f.crash(n - 1 - c, 5 * (c + 1));
  auto vo = std::make_shared<VectorOmegaK>(k, 60);

  ExtractionConfig cfg;
  cfg.ns = "ex";
  cfg.n = n;
  cfg.k = k;
  cfg.explore_every = 2;
  cfg.budget0 = 4000;
  cfg.budget_step = 4000;
  cfg.max_budget = 24000;

  std::vector<ProcBody> bodies;
  for (int i = 0; i < n; ++i) bodies.push_back(make_extraction_sproc(cfg));
  const ReductionRun run = run_reduction(f, vo, seed, bodies, steps);
  const auto h = emulated_history_from_trace(run.trace, cfg);

  E6Result out;
  out.horizon = run.horizon;
  out.anti_ok = AntiOmegaK::check(k, f, *h, run.horizon);
  const int safe = f.correct_set().front();
  // Convergence time: last time `safe` appears in any correct sample.
  for (Time t = run.horizon - 1; t >= 0; --t) {
    bool seen = false;
    for (int qi : f.correct_set()) {
      const Value v = h->at(qi, t);
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (v.at(j).int_or(-1) == safe) seen = true;
      }
    }
    if (seen) {
      out.stable_from = t + 1;
      break;
    }
  }
  if (out.stable_from < 0) out.stable_from = 0;
  return out;
}

void E6_Extraction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int faults = static_cast<int>(state.range(2));
  E6Result res;
  for (auto _ : state) {
    res = run_extraction(n, k, faults, 13, 6000);
  }
  state.counters["anti_ok"] = res.anti_ok ? 1 : 0;
  state.counters["stable_from"] = static_cast<double>(res.stable_from);
  bench::json_run(state, "E6_Extraction", {n, k, faults});

  bench::table_header(
      "E6 (Thm. 8 / Fig. 1): emulating anti-Omega-k from a KSA-solving detector",
      "n   k   faults  antiOmega-spec  stabilized-at  horizon");
  efd::bench::row("%-3d %-3d %-7d %-15s %-14lld %lld", n, k, faults,
              res.anti_ok ? "PASS" : "fail", static_cast<long long>(res.stable_from),
              static_cast<long long>(res.horizon));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E6_Extraction)
    ->Args({4, 2, 1})
    ->Args({4, 2, 2})
    ->Args({4, 3, 1})
    ->Args({5, 2, 2})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
