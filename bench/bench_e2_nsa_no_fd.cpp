// E2 (§2.2): with n S-processes and NO failure detector, (Π, n)-set
// agreement is solvable in every environment. Table: distinct decided values
// (must be <= live relayers) and steps, across fault loads.
#include "bench_common.hpp"

namespace efd {
namespace {

void run() {
  bench::table_header("E2 (sec. 2.2): (Pi,n)-set agreement with NO detector",
                      "n   faults  distinct-decided  bound(n)  steps");
  for (const int faults : {0, 1, 2}) {
    for (const int n : {3, 5, 8}) {
      const FailurePattern f = Environment(n, n - 1).sample(17, faults, 10);
      TrivialFd trivial;
      World w(f, trivial.history(f, 17));
      const KsaConfig cfg{"nsa", n, n};
      for (int i = 0; i < n; ++i) w.spawn_c(i, make_nsa_noadvice_client(cfg, Value(i)));
      for (int i = 0; i < n; ++i) w.spawn_s(i, make_nsa_noadvice_server(cfg));
      RandomScheduler rs(17);
      const auto r = drive(w, rs, 500000);
      if (!r.all_c_decided) throw std::runtime_error("E2: run did not decide");
      const std::size_t distinct = bench::distinct_decisions(w, n).size();
      bench::record("E2_NoAdviceSetAgreement", {n, faults},
                    {{"steps", r.steps}, {"distinct", distinct}});
      bench::row("%-3d %-7d %-17zu %-9d %lld", n, faults, distinct, n,
                 static_cast<long long>(r.steps));
    }
  }
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E2", efd::run, argc, argv); }
