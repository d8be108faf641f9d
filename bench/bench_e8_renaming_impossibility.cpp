// E8 (Lemma 11 / Thm. 12 / Cor. 13): strong renaming == consensus.
// Three pieces of evidence:
//  (a) lasso search: a naive strong 2-renaming candidate has a non-deciding
//      2-concurrent run (FLP-style witness);
//  (b) exhaustive exploration: Fig. 4 solves strong renaming 1-concurrently
//      but breaks 2-concurrently;
//  (c) the Lemma 11 construction: consensus built from a strong 2-renaming
//      box (itself powered by Ω-consensus — the equivalence in action).
#include "bench_common.hpp"

#include "core/bivalence.hpp"
#include "core/reduction.hpp"
#include "core/solvability.hpp"

namespace efd {
namespace {

// The same naive flip-on-clash strong 2-renaming automaton the tests use.
struct NaiveRenaming final : SimProgram {
  Value init(int index, const Value&) const override {
    return vec(Value(index), Value(1), Value(0), Value(0));
  }
  SimAction action(const Value& st) const override {
    const int me = static_cast<int>(st.at(0).int_or(0));
    const auto phase = st.at(3).int_or(0);
    if (phase == 0) return {SimAction::Kind::kWrite, reg("nr/R", me), st.at(1)};
    if (phase == 1) return {SimAction::Kind::kRead, reg("nr/R", 1 - me), {}};
    if (phase == 2) return {SimAction::Kind::kDecide, "", st.at(1)};
    return {};
  }
  Value transition(const Value& st, const Value& result) const override {
    const auto phase = st.at(3).int_or(0);
    std::int64_t name = st.at(1).int_or(1);
    std::int64_t stable = st.at(2).int_or(0);
    std::int64_t next = phase + 1;
    if (phase == 1) {
      if (result.is_nil() || result.int_or(0) != name) {
        next = ++stable >= 2 ? 2 : 0;
      } else {
        stable = 0;
        name = 3 - name;
        next = 0;
      }
    }
    return vec(st.at(0), Value(name), Value(stable), Value(next));
  }
};

void lasso_search() {
  LassoConfig cfg;
  cfg.participants = {0, 1};
  const LassoResult r =
      find_nontermination(std::make_shared<NaiveRenaming>(), {Value(0), Value(1)}, cfg);
  bench::record("E8a_LassoSearch", {}, {{"found", r.found ? 1 : 0}, {"states", r.states}});
  bench::table_header("E8a (Thm. 12): non-deciding 2-concurrent run of a candidate",
                      "candidate          lasso-found  states-explored  cycle-length");
  bench::row("%-18s %-12s %-16lld %zu", "naive-flip", r.found ? "yes" : "no",
             static_cast<long long>(r.states), r.cycle.size());
}

void fig4_breaks_at_two() {
  const int n = 3;
  auto task = std::make_shared<RenamingTask>(RenamingTask::strong(n, 2));
  const ValueVec in = task->sample_input(0);
  const RenamingConfig rcfg{"ren", n};
  auto body = [rcfg](int, Value input) { return make_renaming_kconc(rcfg, input); };
  ExploreConfig cfg;
  cfg.arrival = Task::participants(in);
  cfg.k = 1;
  const ExploreOutcome lvl1 = explore_k_concurrent(task, body, in, cfg);
  cfg.k = 2;
  const ExploreOutcome lvl2 = explore_k_concurrent(task, body, in, cfg);
  bench::record("E8b_Fig4BreaksAtTwo", {},
                {{"lvl1_ok", lvl1.ok ? 1 : 0},
                 {"lvl2_ok", lvl2.ok ? 1 : 0},
                 {"lvl2_dedup_hits", lvl2.stats.dedup_hits}});
  bench::table_header("E8b (Thm. 12): Fig. 4 on strong 2-renaming, by concurrency level",
                      "level  clean-sweep  violation");
  bench::row("1      %-12s %s", lvl1.ok ? "yes" : "no",
             lvl1.violation.empty() ? "-" : lvl1.violation.c_str());
  bench::row("2      %-12s %s", lvl2.ok ? "yes" : "no",
             lvl2.violation.empty() ? "-" : lvl2.violation.c_str());
}

void lemma11_construction(std::uint64_t seed) {
  const int n = 2;
  const FailurePattern f = Environment(n, n - 1).sample(seed, static_cast<int>(seed % 2), 10);
  OmegaFd omega(30);
  World w(f, omega.history(f, seed));
  const SlotRenamingConfig scfg{"l11slots", n, 2};
  auto box = std::make_shared<ReplayProgram>(
      [scfg](int, const Value& input, Context& ctx) {
        return make_slot_renaming_client(scfg, input)(ctx);
      });
  for (int me = 0; me < 2; ++me) {
    w.spawn_c(me, make_consensus_from_renaming("l11", me, Value(500 + me), box));
  }
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_slot_renaming_server(scfg));
  RandomScheduler rs(seed + 77);
  const auto r = drive(w, rs, 2000000);
  if (!r.all_c_decided) throw std::runtime_error("E8c: Lemma 11 run did not decide");
  const bool agreement = w.decision(cpid(0)) == w.decision(cpid(1));
  bench::record("E8c_Lemma11Construction", {static_cast<std::int64_t>(seed)},
                {{"steps", r.steps},
                 {"agreement", agreement ? 1 : 0},
                 {"footprint", w.memory().footprint()},
                 {"writes", w.run_stats().writes}});
  bench::row("%-5lld %-10s %lld", static_cast<long long>(seed), agreement ? "yes" : "NO",
             static_cast<long long>(r.steps));
}

void run() {
  lasso_search();
  fig4_breaks_at_two();
  bench::table_header("E8c (Lemma 11): consensus from a strong 2-renaming box",
                      "seed  agreement  steps");
  for (const std::uint64_t seed : {1, 2, 3}) lemma11_construction(seed);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E8", efd::run, argc, argv); }
