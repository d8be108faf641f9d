// E19 (message-passing substrate): the MP k-set agreement impossibility
// boundary, cross-backend agreement, and per-backend exploration throughput.
//
// FloodMin (n=3, f=1) explored exhaustively on both substrate backends —
// ShmSubstrate (registers-as-mailboxes) and the eager MsgSubstrate — at every
// concurrency level. The boundary table mechanizes "FloodMin solves k-set
// agreement iff k >= f+1": the kset=2 rows stay clean at every level, the
// kset=1 rows are violated from level 2 on (the freed window slot admits p2,
// whose FIFO inbox can order p1's flood before p0's). The agreement table
// pins the tentpole property: states, terminal runs, blocked dead ends and
// verdicts are byte-identical across backends at every tested thread count.
// The timing rows report explored states/second per backend and, for the
// daemon-mode fabric (per-link FIFO channels, deliveries as schedulable
// S-steps), end-to-end model steps/second and deliveries/second.
#include "bench_common.hpp"

#include <memory>
#include <string>

EFD_BENCH_JSON("E19")

namespace efd {
namespace {

constexpr int kN = 3;  // FloodMin system size
constexpr int kF = 1;  // tolerated crashes

std::function<ProcBody(int, Value)> e19_body() {
  const FloodMinConfig cfg{kN, kF};
  return [cfg](int i, Value input) { return make_floodmin(cfg, i, std::move(input)); };
}

ValueVec e19_inputs() {
  ValueVec in(kN);
  for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  return in;
}

std::function<World()> e19_factory(bool msg) {
  if (msg) {
    return [] {
      World w = World::failure_free(1);
      install_msg_eager(w, kN, kN);
      return w;
    };
  }
  return [] {
    World w = World::failure_free(1);
    install_shm_mailboxes(w);
    return w;
  };
}

ExploreOutcome e19_sweep(bool msg, int kset, int k, int threads) {
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = {0, 1, 2};
  cfg.max_states = 2000000;
  cfg.threads = threads;
  cfg.world_factory = e19_factory(msg);
  const TaskPtr task = std::make_shared<SetAgreementTask>(kN, kset);
  return explore_k_concurrent(task, e19_body(), e19_inputs(), cfg);
}

// ---- headline tables (printed once, stored into BENCH_E19.json) ----------

void e19_boundary_table() {
  bench::table_header(
      "E19: FloodMin (n=3, f=1) k-set agreement boundary, per backend",
      "kset | level |   shm verdict   |   msg verdict   |  states | blocked");
  for (int kset : {1, 2}) {
    for (int k = 1; k <= kN; ++k) {
      const ExploreOutcome shm = e19_sweep(false, kset, k, 1);
      const ExploreOutcome msg = e19_sweep(true, kset, k, 1);
      const auto verdict = [](const ExploreOutcome& o) {
        return o.budget_exhausted ? "exhausted" : (o.ok ? "clean" : "violated");
      };
      bench::row("%4d | %5d | %15s | %15s | %7lld | %7lld", kset, k, verdict(shm),
                 verdict(msg), static_cast<long long>(shm.states),
                 static_cast<long long>(shm.blocked_runs));
    }
  }
}

void e19_agreement_table() {
  bench::table_header(
      "E19: cross-backend agreement, FloodMin (3,2)-set-agreement full sweep",
      "backend | threads |  states | terminal | blocked | verdict | equal to shm x1");
  const ExploreOutcome base = e19_sweep(false, kF + 1, kN, 1);
  for (const bool msg : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      const ExploreOutcome o = e19_sweep(msg, kF + 1, kN, threads);
      const bool equal = o.ok == base.ok && o.states == base.states &&
                         o.terminal_runs == base.terminal_runs &&
                         o.blocked_runs == base.blocked_runs &&
                         o.stats.dedup_misses == base.stats.dedup_misses;
      bench::row("%7s | %7d | %7lld | %8lld | %7lld | %7s | %s", msg ? "msg" : "shm",
                 threads, static_cast<long long>(o.states),
                 static_cast<long long>(o.terminal_runs),
                 static_cast<long long>(o.blocked_runs), o.ok ? "clean" : "violated",
                 equal ? "yes" : "NO");
    }
  }
}

// ---- timing rows ---------------------------------------------------------

void run_explore(benchmark::State& state, bool msg, const char* json_name) {
  e19_boundary_table();
  e19_agreement_table();
  std::int64_t states_total = 0;
  ExploreOutcome last;
  for (auto _ : state) {
    last = e19_sweep(msg, kF + 1, kN, 1);
    states_total += last.states;
  }
  state.counters["states"] = static_cast<double>(last.states);
  state.counters["states/s"] =
      benchmark::Counter(static_cast<double>(states_total), benchmark::Counter::kIsRate);
  state.counters["terminal_runs"] = static_cast<double>(last.terminal_runs);
  state.counters["blocked_runs"] = static_cast<double>(last.blocked_runs);
  state.counters["clean"] = last.ok && !last.budget_exhausted ? 1 : 0;
  bench::json_run(state, json_name);
}

void E19_ExploreShm(benchmark::State& state) { run_explore(state, false, "E19_ExploreShm"); }
void E19_ExploreMsg(benchmark::State& state) { run_explore(state, true, "E19_ExploreMsg"); }

// Daemon-mode end-to-end throughput: FloodMin over per-link FIFO channels,
// the n*n delivery daemons scheduled like any other S-process. Reports model
// steps/second and deliveries/second of the full fabric.
void E19_DaemonDrive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const FloodMinConfig cfg{n, 1};
  const auto one_run = [&](std::uint64_t seed, bool& decided, std::int64_t& steps,
                           std::int64_t& delivers) {
    FailurePattern base(n * n);
    TrivialFd trivial;
    World w = make_mp_world(n, n, base, trivial.history(base, 0));
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_floodmin(cfg, i, Value(i)));
    RandomScheduler rs(seed);
    const DriveResult r = drive(w, rs, 200000);
    decided = decided && r.all_c_decided;
    steps += w.run_stats().steps;
    delivers += w.run_stats().delivers;
  };
  // One deterministic run for the table (dedup-stable across calibration
  // re-invocations); the timing loop below sweeps seeds.
  bool d1 = true;
  std::int64_t s1 = 0, del1 = 0;
  one_run(1, d1, s1, del1);
  bench::row("daemon drive n=%d (seed 1) | %6lld steps | %6lld deliveries | decided=%d",
             n, static_cast<long long>(s1), static_cast<long long>(del1), d1 ? 1 : 0);

  std::int64_t steps_total = 0;
  std::int64_t delivers_total = 0;
  bool decided = true;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    one_run(seed++, decided, steps_total, delivers_total);
  }
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps_total), benchmark::Counter::kIsRate);
  state.counters["deliveries_per_s"] =
      benchmark::Counter(static_cast<double>(delivers_total), benchmark::Counter::kIsRate);
  state.counters["decided"] = decided ? 1 : 0;
  bench::json_run(state, "E19_DaemonDrive", {n});
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E19_ExploreShm)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E19_ExploreMsg)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E19_DaemonDrive)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
