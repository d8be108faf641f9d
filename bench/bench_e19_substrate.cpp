// E19 (message-passing substrate): the MP k-set agreement impossibility
// boundary, cross-backend agreement, and daemon-mode drives of the fabric.
//
// FloodMin (n=3, f=1) explored exhaustively on both substrate backends —
// ShmSubstrate (registers-as-mailboxes) and the eager MsgSubstrate — at every
// concurrency level. The boundary table mechanizes "FloodMin solves k-set
// agreement iff k >= f+1": the kset=2 rows stay clean at every level, the
// kset=1 rows are violated from level 2 on (the freed window slot admits p2,
// whose FIFO inbox can order p1's flood before p0's). The agreement table
// pins the tentpole property: states, terminal runs, blocked dead ends and
// verdicts are byte-identical across backends at every tested thread count.
// The daemon-mode rows drive FloodMin over the full fabric (per-link FIFO
// channels, deliveries as schedulable S-steps); perfbench times its delivery
// path (channel.deliver_ns).
#include "bench_common.hpp"

#include <memory>
#include <string>

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

void record_sweep(bool msg, const char* json_name) {
  const ExploreOutcome o = e19_sweep(msg, kF + 1, kN, 1);
  bench::record(json_name, {},
                {{"states", o.states},
                 {"terminal_runs", o.terminal_runs},
                 {"blocked_runs", o.blocked_runs},
                 {"clean", o.ok && !o.budget_exhausted ? 1 : 0}});
}

// Daemon-mode FloodMin over per-link FIFO channels, the n*n delivery daemons
// scheduled like any other S-process.
void daemon_drive(int n) {
  const FloodMinConfig cfg{n, 1};
  FailurePattern base(n * n);
  TrivialFd trivial;
  World w = make_mp_world(n, n, base, trivial.history(base, 0));
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_floodmin(cfg, i, Value(i)));
  RandomScheduler rs(1);
  const DriveResult r = drive(w, rs, 200000);
  bench::record("E19_DaemonDrive", {n}, {{"decided", r.all_c_decided ? 1 : 0}});
  bench::row("daemon drive n=%d (seed 1) | %6lld steps | %6lld deliveries | decided=%d", n,
             static_cast<long long>(w.run_stats().steps),
             static_cast<long long>(w.run_stats().delivers), r.all_c_decided ? 1 : 0);
}

void run() {
  e19_boundary_table();
  e19_agreement_table();
  record_sweep(false, "E19_ExploreShm");
  record_sweep(true, "E19_ExploreMsg");
  // The daemon rows extend the agreement table.
  daemon_drive(3);
  daemon_drive(6);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E19", efd::run, argc, argv); }
