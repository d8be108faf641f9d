// E11 (Fig. 3): the 1-resilient wrapper gates ANY renaming algorithm so the
// induced inner run is 2-concurrent. Table: participants vs decisions, the
// names stay within the wrapped algorithm's 2-concurrent bound (j+1 for
// Fig. 4), and wrapper overhead in steps.
#include "bench_common.hpp"

#include "algo/renaming_1resilient.hpp"

namespace efd {
namespace {

/// `participants` is j (all of them) or j-1 (one never arrives).
void one_resilient_wrapper(int j, int participants) {
  const int n = j + 2;
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
  std::set<std::int64_t> names;
  std::int64_t max_name = 0;
  for (int i = 0; i < participants; ++i) {
    const auto name = w.decision(cpid(i)).as_int();
    names.insert(name);
    max_name = std::max(max_name, name);
  }
  const bool unique = static_cast<int>(names.size()) == participants;
  bench::record("E11_OneResilientWrapper", {j, participants},
                {{"steps", r.steps}, {"max_name", max_name}});
  bench::row("%-3d %-13d %-9lld %-18d %-7s %lld", j, participants,
             static_cast<long long>(max_name), j + 1, unique ? "yes" : "NO",
             static_cast<long long>(r.steps));
}

void run() {
  bench::table_header("E11 (Fig. 3): 1-resilient wrapper around Fig. 4 renaming",
                      "j   participants  max-name  2-conc-bound(j+1)  unique  steps");
  one_resilient_wrapper(3, 3);
  one_resilient_wrapper(3, 2);
  one_resilient_wrapper(4, 4);
  one_resilient_wrapper(4, 3);
  one_resilient_wrapper(5, 5);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E11", efd::run, argc, argv); }
