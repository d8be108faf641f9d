// E4 (Thm. 9, colorless face): k-set agreement with →Ωk advice. Table:
// decision latency vs (n, k, GST) and the distinct-values bound; plus the
// full Thm. 9 double simulation (k-codes of BG-simulators) at small scale.
#include "bench_common.hpp"

namespace efd {
namespace {

void ksa_with_advice(int n, int k, Time gst) {
  const FailurePattern f = Environment(n, n - 1).sample(31, n / 2, 10);
  VectorOmegaK vo(k, gst);
  World w(f, vo.history(f, 31));
  const KsaConfig cfg{"ksa", n, k};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_ksa_client(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_ksa_server(cfg));
  RandomScheduler rs(31);
  const auto r = drive(w, rs, 5000000);
  if (!r.all_c_decided) throw std::runtime_error("E4: KSA run did not decide");
  const std::size_t distinct = bench::distinct_decisions(w, n).size();
  if (static_cast<int>(distinct) > k) throw std::runtime_error("E4: agreement bound broken");
  bench::record("E4_KsaWithAdvice", {n, k, gst}, {{"steps", r.steps}, {"distinct", distinct}});
  bench::row("%-3d %-3d %-5lld %-14zu %lld", n, k, static_cast<long long>(gst), distinct,
             static_cast<long long>(r.steps));
}

void theorem9_double_simulation(int n, int k) {
  const FailurePattern f = Environment(n, n - 1).sample(7, 1, 10);
  VectorOmegaK vo(k, 40);
  World w(f, vo.history(f, 7));
  auto task = std::make_shared<SetAgreementTask>(n, k);
  Thm9Config cfg;
  cfg.ns = "t9";
  cfg.n = n;
  cfg.k = k;
  cfg.task_code = std::make_shared<ReplayProgram>(
      [task](int, const Value& input, Context& ctx) {
        return make_one_concurrent(task, input, "t9task")(ctx);
      });
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_thm9_simulator(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_thm9_server(cfg));
  RandomScheduler rs(9);
  const auto r = drive(w, rs, 40000000);
  if (!r.all_c_decided) throw std::runtime_error("E4b: double simulation did not decide");
  const std::size_t distinct = bench::distinct_decisions(w, n).size();
  bench::record("E4b_Theorem9DoubleSimulation", {n, k},
                {{"steps", r.steps}, {"distinct", distinct}});
  bench::row("%-3d %-3d %-14zu %lld", n, k, distinct, static_cast<long long>(r.steps));
}

void run() {
  bench::table_header("E4 (Thm. 9): k-set agreement with vec-Omega-k advice",
                      "n   k   GST   distinct(<=k)  steps-to-all-decided");
  for (const Time gst : {20, 80, 200}) {
    for (const int k : {1, 2, 3}) {
      for (const int n : {3, 5, 8}) ksa_with_advice(n, k, gst);
    }
  }
  bench::table_header(
      "E4b (Thm. 9): full double simulation (k-codes of BG-simulators of the task)",
      "n   k   distinct(<=k)  steps");
  theorem9_double_simulation(2, 2);
  theorem9_double_simulation(3, 2);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E4", efd::run, argc, argv); }
