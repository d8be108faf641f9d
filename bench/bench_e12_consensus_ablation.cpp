// E12 (ablation, App. C.1 design choice): the leader-driven Paxos consensus
// under degraded advice. Tables: decision latency vs GST (how long chaotic
// leadership delays decisions, never breaking safety) and vs system size.
#include "bench_common.hpp"

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

void latency_vs_gst(int n, Time gst, bool ac) {
  const std::int64_t steps = consensus_latency(n, gst, 5, ac);
  bench::record("E12_LatencyVsGst", {n, gst, ac ? 1 : 0}, {{"steps", steps}});
  bench::row("%-13s %-3d %-6lld %lld", ac ? "adopt-commit" : "paxos", n,
             static_cast<long long>(gst), static_cast<long long>(steps));
}

void safety_under_chaos(int n) {
  // GST beyond the run: the oracle misbehaves throughout; count how many runs
  // decide anyway and verify agreement in every one of them.
  int decided_runs = 0;
  int safe_runs = 0;
  const int total = 20;
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
  bench::record("E12_SafetyUnderChaos", {n},
                {{"decided_runs", decided_runs}, {"safe_runs", safe_runs}});
  bench::row("%-3d %-5d %-15d %d", n, total, decided_runs, safe_runs);
}

void run() {
  bench::table_header("E12 (ablation): leader-driven consensus, latency vs GST",
                      "server        n   GST    steps-to-all-decided");
  for (const bool ac : {false, true}) {
    for (const Time gst : {0, 25, 100, 400}) {
      for (const int n : {3, 5}) latency_vs_gst(n, gst, ac);
    }
  }
  bench::table_header("E12b (ablation): safety with a never-stabilizing leader oracle",
                      "n   runs  decided-anyway  agreement-held");
  safety_under_chaos(3);
  safety_under_chaos(5);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E12", efd::run, argc, argv); }
