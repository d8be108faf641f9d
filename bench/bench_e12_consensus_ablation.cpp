// E12 (ablation, App. C.1 design choice): the leader-driven Paxos consensus
// under degraded advice. Tables: decision latency vs GST (how long chaotic
// leadership delays decisions, never breaking safety) and vs system size.
#include "bench_common.hpp"

EFD_BENCH_JSON("E12")

namespace efd {
namespace {

std::int64_t consensus_latency(int n, Time gst, std::uint64_t seed, bool adopt_commit_server) {
  FailurePattern f(n);
  OmegaFd omega(gst);
  World w(f, omega.history(f, seed));
  const LeaderConsensusConfig cfg{"cons", n};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_consensus_client(cfg, Value(100 + i)));
  for (int i = 0; i < n; ++i) {
    w.spawn_s(i, adopt_commit_server ? make_consensus_server_ac(cfg) : make_consensus_server(cfg));
  }
  RandomScheduler rs(seed);
  const auto r = drive(w, rs, 5000000);
  if (!r.all_c_decided) throw std::runtime_error("E12: consensus did not decide");
  const auto vals = bench::distinct_decisions(w, n);
  if (vals.size() != 1) throw std::runtime_error("E12: agreement broken");
  return r.steps;
}

void E12_LatencyVsGst(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Time gst = state.range(1);
  const bool ac = state.range(2) != 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    steps = consensus_latency(n, gst, 5, ac);
  }
  state.counters["steps"] = static_cast<double>(steps);
  bench::json_run(state, "E12_LatencyVsGst", {n, gst, ac ? 1 : 0});

  bench::table_header("E12 (ablation): leader-driven consensus, latency vs GST",
                      "server        n   GST    steps-to-all-decided");
  efd::bench::row("%-13s %-3d %-6lld %lld", ac ? "adopt-commit" : "paxos", n,
                  static_cast<long long>(gst), static_cast<long long>(steps));
}

void E12_SafetyUnderChaos(benchmark::State& state) {
  // GST beyond the run: the oracle misbehaves throughout; count how many runs
  // decide anyway and verify agreement in every one of them.
  const int n = static_cast<int>(state.range(0));
  int decided_runs = 0;
  int safe_runs = 0;
  const int total = 20;
  for (auto _ : state) {
    decided_runs = 0;
    safe_runs = 0;
    for (std::uint64_t seed = 0; seed < total; ++seed) {
      FailurePattern f(n);
      OmegaFd omega(1000000);
      World w(f, omega.history(f, seed));
      const LeaderConsensusConfig cfg{"cons", n};
      for (int i = 0; i < n; ++i) w.spawn_c(i, make_consensus_client(cfg, Value(i)));
      for (int i = 0; i < n; ++i) w.spawn_s(i, make_consensus_server(cfg));
      RandomScheduler rs(seed);
      drive(w, rs, 30000);
      const auto vals = bench::distinct_decisions(w, n);
      if (!vals.empty()) ++decided_runs;
      if (vals.size() <= 1) ++safe_runs;
    }
  }
  state.counters["decided_runs"] = static_cast<double>(decided_runs);
  state.counters["safe_runs"] = static_cast<double>(safe_runs);
  bench::json_run(state, "E12_SafetyUnderChaos", {n});

  bench::table_header("E12b (ablation): safety with a never-stabilizing leader oracle",
                      "n   runs  decided-anyway  agreement-held");
  efd::bench::row("%-3d %-5d %-15d %d", n, total, decided_runs, safe_runs);
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E12_LatencyVsGst)
    ->ArgsProduct({{3, 5}, {0, 25, 100, 400}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(efd::E12_SafetyUnderChaos)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);
