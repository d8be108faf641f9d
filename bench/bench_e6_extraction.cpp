// E6 (Thm. 8 / Fig. 1): extracting ¬Ωk from a detector that solves k-set
// agreement. Table: does the emulated history pass the ¬Ωk spec check, when
// does it stabilize, and how much local simulation the hunt spends.
#include "bench_common.hpp"

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

void extraction(int n, int k, int faults) {
  const E6Result res = run_extraction(n, k, faults, 13, 6000);
  bench::record("E6_Extraction", {n, k, faults},
                {{"anti_ok", res.anti_ok ? 1 : 0}, {"stable_from", res.stable_from}});
  bench::row("%-3d %-3d %-7d %-15s %-14lld %lld", n, k, faults, res.anti_ok ? "PASS" : "fail",
             static_cast<long long>(res.stable_from), static_cast<long long>(res.horizon));
}

void run() {
  bench::table_header(
      "E6 (Thm. 8 / Fig. 1): emulating anti-Omega-k from a KSA-solving detector",
      "n   k   faults  antiOmega-spec  stabilized-at  horizon");
  extraction(4, 2, 1);
  extraction(4, 2, 2);
  extraction(4, 3, 1);
  extraction(5, 2, 2);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E6", efd::run, argc, argv); }
