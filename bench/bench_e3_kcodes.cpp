// E3 (Fig. 2 / Thm. 14): simulating k codes with →Ωk. Table: steps until the
// first code completes and per-code progress, across (n, k) and fault loads.
#include "bench_common.hpp"

EFD_BENCH_JSON("E3")

namespace efd {
namespace {

// Code: read a register `reads` times, then decide.
struct SpinReadCode final : SimProgram {
  int reads;
  explicit SpinReadCode(int reads) : reads(reads) {}
  Value init(int idx, const Value&) const override { return vec(Value(idx), Value(0)); }
  SimAction action(const Value& st) const override {
    const auto c = st.at(1).int_or(0);
    if (c < reads) return {SimAction::Kind::kRead, "kcx", {}};
    if (c == reads) return {SimAction::Kind::kDecide, "", Value(1000 + st.at(0).int_or(0))};
    return {};
  }
  Value transition(const Value& st, const Value&) const override {
    return vec(st.at(0), Value(st.at(1).int_or(0) + 1));
  }
};

void E3_KCodes(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int faults = static_cast<int>(state.range(2));
  std::int64_t steps = 0;
  std::int64_t prog_total = 0;
  double total_steps = 0;
  std::size_t footprint = 0;
  std::size_t writes = 0;
  for (auto _ : state) {
    const FailurePattern f = Environment(n, n - 1).sample(23, faults, 10);
    VectorOmegaK vo(k, 50);
    World w(f, vo.history(f, 23));
    KCodesConfig cfg;
    cfg.ns = "kc";
    cfg.n = n;
    cfg.k = k;
    cfg.code = std::make_shared<SpinReadCode>(5);
    cfg.inputs.assign(static_cast<std::size_t>(k), Value(0));
    const KCodesHarvest harvest = [](const ValueVec& d) {
      for (const auto& v : d) {
        if (!v.is_nil()) return v;
      }
      return Value{};
    };
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_kcodes_simulator(cfg, harvest));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_kcodes_server(cfg));
    RandomScheduler rs(23);
    const auto r = drive(w, rs, 5000000);
    if (!r.all_c_decided) throw std::runtime_error("E3: simulation made no progress");
    steps = r.steps;
    total_steps += static_cast<double>(r.steps);
    footprint = w.memory().footprint();
    writes = w.memory().write_count();
    prog_total = 0;
    for (int j = 0; j < k; ++j) prog_total += kcodes_progress(w, cfg, j);
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["agreed_reads"] = static_cast<double>(prog_total);
  bench::perf_counters(state, total_steps, footprint, writes);
  bench::json_run(state, "E3_KCodes", {n, k, faults});

  bench::table_header("E3 (Fig. 2 / Thm. 14): k-codes simulation with vec-Omega-k",
                      "n   k   faults  steps-to-first-completion  total-agreed-reads");
  efd::bench::row("%-3d %-3d %-7d %-26lld %lld", n, k, faults, static_cast<long long>(steps),
              static_cast<long long>(prog_total));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E3_KCodes)
    ->ArgsProduct({{3, 4, 6}, {1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
