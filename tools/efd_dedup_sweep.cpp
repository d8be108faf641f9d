// efd_dedup_sweep: one memory-governed exploration sweep, for sizing and
// certifying large (10⁸–10⁹ state) hierarchy levels through the tiered
// dedup store (core/diskset.hpp).
//
//   efd_dedup_sweep [--n N] [--set-k K] [--level L] [--max-states N]
//                   [--max-depth N] [--threads N]
//                   [--tiers mem|tiered] [--mem-mb N] [--spill-dir DIR]
//                   [--out FILE]
//
// Runs the generic 1-concurrent solver for (N, K)-set-agreement under a
// level-L concurrency window and reports whether the level was FULLY
// certified clean, only lower-bounded (the budget or the memory cap ran
// out first — the paper-facing "L+" rows), or refuted by a violating run.
// The store flags are the sweep's only store inputs (default: unbudgeted,
// in memory; no environment variable changes that), so the same invocation
// can be flipped between the RAM-capped mem-only configuration and the
// out-of-core one to compare capacity.
//
// --out writes an efd-dedup-sweep-v1 JSON document: the resolved config,
// the semantic counters (identical across store shapes by design), the run
// (verdict flags, wall time, rate and `cpu_s`, the process CPU seconds the
// sweep burned on all its threads) and the per-tier traffic. Exit codes:
// 0 level certified clean; 3 exhausted (lower bound only); 1 violating run
// found; 2 usage error; 6 other error.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "algo/one_concurrent.hpp"
#include "cli_args.hpp"
#include "core/solvability.hpp"
#include "core/telemetry.hpp"
#include "tasks/set_agreement.hpp"

namespace {

using namespace efd;

int usage() {
  std::fprintf(stderr,
               "usage: efd_dedup_sweep [--n N] [--set-k K] [--level L]\n"
               "                       [--max-states N] [--max-depth N] [--threads N]\n"
               "                       [--tiers mem|tiered] [--mem-mb N] [--spill-dir DIR]\n"
               "                       [--out FILE]\n");
  return 2;
}

/// CPU seconds consumed so far by every thread of this process.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

telemetry::Json sweep_json(const ExploreOutcome& o, const ExploreConfig& cfg, int n, int set_k,
                           const std::string& verdict, double cpu_s) {
  using telemetry::Json;
  Json doc = Json::object();
  doc["schema"] = "efd-dedup-sweep-v1";
  doc["git"] = telemetry::git_describe();
  Json config = Json::object();
  config["task"] = "(" + std::to_string(n) + "," + std::to_string(set_k) + ")-set-agreement";
  config["n"] = n;
  config["set_k"] = set_k;
  config["level"] = cfg.k;
  config["max_states"] = cfg.max_states;
  config["max_depth"] = cfg.max_depth;
  config["threads"] = cfg.threads;
  config["tiers"] = cfg.dedup_store.disk_tier ? "tiered" : "mem";
  config["mem_budget_bytes"] = static_cast<std::int64_t>(cfg.dedup_store.mem_budget_bytes);
  config["spill_dir"] = cfg.dedup_store.spill_dir;
  doc["config"] = std::move(config);

  doc["verdict"] = verdict;
  Json sem = Json::object();  // identical across store shapes by design
  sem["states"] = o.states;
  sem["terminal_runs"] = o.terminal_runs;
  sem["dedup_queries"] = o.stats.dedup_queries;
  sem["dedup_misses"] = o.stats.dedup_misses;
  sem["dedup_hits"] = o.stats.dedup_hits;
  doc["semantic"] = std::move(sem);
  Json run = Json::object();
  run["ok"] = o.ok;
  run["budget_exhausted"] = o.budget_exhausted;
  run["mem_exhausted"] = o.mem_exhausted;
  run["violation"] = o.violation;
  run["elapsed_s"] = o.stats.elapsed_s;
  run["states_per_s"] = o.stats.states_per_s;
  run["cpu_s"] = cpu_s;
  doc["run"] = std::move(run);
  Json tiers = Json::object();
  tiers["recent_hits"] = o.stats.dedup_recent_hits;
  tiers["mem_hits"] = o.stats.dedup_mem_hits;
  tiers["cold_probes"] = o.stats.dedup_cold_probes;
  tiers["bloom_skips"] = o.stats.dedup_bloom_skips;
  tiers["cold_hits"] = o.stats.dedup_cold_hits;
  tiers["spills"] = o.stats.dedup_spills;
  tiers["spilled_sigs"] = o.stats.dedup_spilled_sigs;
  tiers["spill_bytes"] = o.stats.dedup_spill_bytes;
  tiers["merges"] = o.stats.dedup_merges;
  doc["tiers"] = std::move(tiers);
  return doc;
}

int run(int argc, char** argv) {
  int n = 5;
  int set_k = 2;
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.max_states = 400000;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], n, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--set-k") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], set_k, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--level") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], cfg.k, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--max-states") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], cfg.max_states, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--max-depth") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], cfg.max_depth, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], cfg.threads, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--tiers") && i + 1 < argc) {
      const std::string t = argv[++i];
      if (t == "mem") {
        cfg.dedup_store.disk_tier = false;
      } else if (t == "tiered" || t == "disk") {
        cfg.dedup_store.disk_tier = true;
      } else {
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--mem-mb") && i + 1 < argc) {
      // Above SIZE_MAX >> 20 MiB the byte count would wrap.
      long long mb = 0;
      if (!cli::parse_int(argv[++i], mb, 0, static_cast<long long>(SIZE_MAX >> 20))) {
        return usage();
      }
      cfg.dedup_store.mem_budget_bytes = static_cast<std::size_t>(mb) << 20;
    } else if (!std::strcmp(argv[i], "--spill-dir") && i + 1 < argc) {
      cfg.dedup_store.spill_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (set_k >= n || cfg.k > n) return usage();

  const TaskPtr task = std::make_shared<SetAgreementTask>(n, set_k);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  const auto body = [task](int, Value input) {
    return make_one_concurrent(task, input, "dedup_sweep");
  };
  cfg.arrival.clear();
  for (int i = 0; i < n; ++i) cfg.arrival.push_back(i);

  const double cpu0 = process_cpu_s();
  const ExploreOutcome o = explore_k_concurrent(task, body, in, cfg);
  const double cpu_s = process_cpu_s() - cpu0;
  const std::string verdict = !o.ok              ? "violation"
                              : o.budget_exhausted ? "lower_bound"
                                                   : "clean";
  std::printf("(%d,%d)-set-agreement level %d [%s%s]: %s — %" PRId64 "%s states, %" PRId64
              " terminal runs, %" PRId64 " unique sigs (%.0f states/s, %.2f CPU-s)\n",
              n, set_k, cfg.k, cfg.dedup_store.disk_tier ? "tiered" : "mem",
              cfg.dedup_store.mem_budget_bytes != 0 ? "+cap" : "", verdict.c_str(), o.states,
              o.budget_exhausted ? "+" : "", o.terminal_runs, o.stats.dedup_misses,
              o.stats.states_per_s, cpu_s);
  if (o.mem_exhausted) {
    std::printf("  memory cap hit with no disk tier: the level is a lower bound only "
                "(rerun with --tiers tiered to certify)\n");
  }
  if (!o.ok) std::printf("  violation: %s\n", o.violation.c_str());
  if (o.stats.dedup_spills > 0) {
    std::printf("  disk tier: %" PRId64 " spills, %" PRId64 " sigs, %" PRId64 " bytes, %" PRId64
                " merges\n",
                o.stats.dedup_spills, o.stats.dedup_spilled_sigs, o.stats.dedup_spill_bytes,
                o.stats.dedup_merges);
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "efd_dedup_sweep: cannot write %s\n", out_path.c_str());
      return 6;
    }
    f << sweep_json(o, cfg, n, set_k, verdict, cpu_s).dump(2) << "\n";
  }
  if (!o.ok) return 1;
  return o.budget_exhausted ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_dedup_sweep: %s\n", e.what());
    return 6;
  }
}
