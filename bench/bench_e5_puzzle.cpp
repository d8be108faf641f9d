// E5 (Thm. 7, "the puzzle"): a detector solving (U, k)-set agreement among
// ONE set of k+1 processes solves (Π, k)-set agreement among all n. Table:
// distinct decisions (<= k) and simulation cost vs (n, k).
#include "bench_common.hpp"

namespace efd {
namespace {

void booster(int n, int k) {
  const FailurePattern f = Environment(n, n - 1).sample(11, 1, 10);
  VectorOmegaK vo(k, 40);
  World w(f, vo.history(f, 11));
  const BoosterConfig cfg{"boost", n, k};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_booster_simulator(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_booster_server(cfg));
  RandomScheduler rs(11);
  const auto r = drive(w, rs, 20000000);
  if (!r.all_c_decided) throw std::runtime_error("E5: booster run did not decide");
  const std::size_t distinct = bench::distinct_decisions(w, n).size();
  if (static_cast<int>(distinct) > k) throw std::runtime_error("E5: k bound broken");
  bench::record("E5_Booster", {n, k},
                {{"steps", r.steps},
                 {"distinct", distinct},
                 {"footprint", w.memory().footprint()},
                 {"writes", w.run_stats().writes}});
  bench::row("%-3d %-3d %-12d %-14zu %lld", n, k, k + 1, distinct,
             static_cast<long long>(r.steps));
}

void run() {
  bench::table_header(
      "E5 (Thm. 7): boosting (U,k)-agreement (|U| = k+1) to all n processes",
      "n   k   inner-scope  distinct(<=k)  steps");
  for (const int k : {1, 2}) {
    for (const int n : {3, 4, 5, 6}) booster(n, k);
  }
  booster(5, 3);
  booster(6, 4);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E5", efd::run, argc, argv); }
