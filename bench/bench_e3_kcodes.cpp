// E3 (Fig. 2 / Thm. 14): simulating k codes with →Ωk. Table: steps until the
// first code completes and per-code progress, across (n, k) and fault loads.
#include "bench_common.hpp"

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

void run_kcodes(int n, int k, int faults) {
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
  std::int64_t prog_total = 0;
  for (int j = 0; j < k; ++j) prog_total += kcodes_progress(w, cfg, j);
  bench::record("E3_KCodes", {n, k, faults},
                {{"steps", r.steps},
                 {"agreed_reads", prog_total},
                 {"footprint", w.memory().footprint()},
                 {"writes", w.run_stats().writes}});
  bench::row("%-3d %-3d %-7d %-26lld %lld", n, k, faults, static_cast<long long>(r.steps),
             static_cast<long long>(prog_total));
}

void run() {
  bench::table_header("E3 (Fig. 2 / Thm. 14): k-codes simulation with vec-Omega-k",
                      "n   k   faults  steps-to-first-completion  total-agreed-reads");
  for (const int faults : {0, 1}) {
    for (const int k : {1, 2, 3}) {
      for (const int n : {3, 4, 6}) run_kcodes(n, k, faults);
    }
  }
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E3", efd::run, argc, argv); }
