// efd_campaign: seeded adversarial fault campaigns over the paper algorithms.
//
//   efd_campaign list
//   efd_campaign run   [--seed N] [--plans N] [--target NAME ...]
//                      [--save-dir DIR] [--out FILE]
//                      [--no-monitors] [--no-shrink]
//   efd_campaign serve [--seed N] [--target NAME ...] [--corpus DIR]
//                      [--seed-corpus DIR ...] [--workers N] [--batch N]
//                      [--duration SECS] [--max-plans N] [--queue FIFO]
//                      [--soak-interval SECS] [--out FILE]
//                      [--no-monitors] [--no-shrink] [--no-mutate]
//
// `run` sweeps N random FaultPlans (crash storms, targeted trigger kills,
// lying/omissive/stuttering advice, starvation bursts) per campaign target —
// the paper algorithms expected to survive everything, plus the seeded-buggy
// variants the campaign must catch. Violations are saved as replayable
// `efd-tape-v1` tapes (default: tests/corpus/pending/), safety findings are
// ddmin-shrunk and double-replay-verified, and the sweep summary is emitted
// as `efd-campaign-v1` JSON (schema in EXPERIMENTS.md E15; bench_diff.py
// --validate accepts it).
//
// `serve` is the resident campaign farm (EXPERIMENTS.md E18):
// it streams seeded + coverage-mutated plans — plus external submissions
// read line-by-line from a --queue FIFO as `<target> <plan-text>` — across
// all workers as work-stealing batches, dedups findings against the
// persistent content-hashed corpus in --corpus, shrinks + double-replay-
// verifies only novel findings, and prints one `efd-campaign-farm-v1` soak
// record per --soak-interval to stdout (the final record goes to --out when
// given). SIGINT drains gracefully: the in-flight batch completes, its
// findings are classified and persisted, and the final record is emitted.
// Restarting with the same --corpus resumes from the persisted finding set,
// so known findings are reported as duplicates, not rediscoveries.
//
// Numeric flags take whole tokens only (tools/cli_args.hpp): --plans,
// --workers and --batch >= 1, --max-plans >= 0 (0: unbounded), --duration
// and --soak-interval finite and >= 0, --seed an unsigned 64-bit integer.
//
// Exit codes: 0 every target met its verdict (clean targets clean, buggy
// targets caught with a verified shrunk tape; serve: clean exit or drain);
// 1 some verdict failed; 2 usage error (including a malformed or
// out-of-range number); 6 any other error; 7 a save/corpus directory could
// not be created or written.
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "cli_args.hpp"
#include "core/campaign.hpp"

namespace {

using namespace efd;

std::atomic<bool> g_stop{false};

void on_sigint(int) { g_stop.store(true, std::memory_order_relaxed); }

int usage() {
  std::fprintf(stderr,
               "usage: efd_campaign list\n"
               "       efd_campaign run [--seed N] [--plans N] [--target NAME ...]\n"
               "                        [--save-dir DIR] [--out FILE]\n"
               "                        [--no-monitors] [--no-shrink]\n"
               "       efd_campaign serve [--seed N] [--target NAME ...] [--corpus DIR]\n"
               "                          [--seed-corpus DIR ...] [--workers N] [--batch N]\n"
               "                          [--duration SECS] [--max-plans N] [--queue FIFO]\n"
               "                          [--soak-interval SECS] [--out FILE]\n"
               "                          [--no-monitors] [--no-shrink] [--no-mutate]\n");
  return 2;
}

int cmd_list() {
  for (const auto& t : campaign_targets()) {
    std::printf("%-8s %-26s %s%s\n", t.name.c_str(), t.scenario.c_str(), t.algorithm.c_str(),
                t.expect_clean ? "" : "  [seeded bug]");
  }
  return 0;
}

std::vector<const CampaignTarget*> pick_targets(const std::vector<std::string>& names,
                                                bool* ok) {
  *ok = true;
  std::vector<const CampaignTarget*> picked;
  if (names.empty()) {
    for (const auto& t : campaign_targets()) picked.push_back(&t);
    return picked;
  }
  for (const auto& n : names) {
    const CampaignTarget* t = find_campaign_target(n);
    if (!t) {
      std::fprintf(stderr, "efd_campaign: unknown target '%s' (try: efd_campaign list)\n",
                   n.c_str());
      *ok = false;
      return {};
    }
    picked.push_back(t);
  }
  return picked;
}

int cmd_run(int argc, char** argv) {
  CampaignOptions opts;
  opts.save_dir = "tests/corpus/pending";
  std::vector<std::string> names;
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      if (!cli::parse_seed(argv[++i], opts.seed)) return usage();
    } else if (!std::strcmp(argv[i], "--plans") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], opts.plans, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--target") && i + 1 < argc) {
      names.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--save-dir") && i + 1 < argc) {
      opts.save_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-monitors")) {
      opts.monitors = false;
    } else if (!std::strcmp(argv[i], "--no-shrink")) {
      opts.shrink = false;
    } else {
      return usage();
    }
  }

  bool names_ok = false;
  const std::vector<const CampaignTarget*> picked = pick_targets(names, &names_ok);
  if (!names_ok) return 2;

  std::vector<CampaignRun> runs;
  bool all_ok = true;
  for (const CampaignTarget* t : picked) {
    CampaignRun r = run_campaign(*t, opts);
    const bool ok = r.verdict_ok();
    all_ok = all_ok && ok;
    std::fprintf(stderr,
                 "%-8s %4d plans  %4d clean  %2d safety  %2d wait-free  %3" PRId64
                 " starvation obs  %s\n",
                 r.target.c_str(), r.plans, r.clean_plans, r.safety_violations(),
                 r.wait_free_violations(), r.starvation_observations,
                 ok ? "OK" : (r.expect_clean ? "VIOLATIONS" : "BUG NOT CAUGHT"));
    for (const auto& v : r.violations) {
      std::fprintf(stderr, "         seed %" PRIu64 " [%s] %s\n", v.plan_seed, v.plan.c_str(),
                   v.detail.c_str());
      if (v.shrunk_steps > 0) {
        std::fprintf(stderr, "         shrunk %" PRId64 " -> %" PRId64 " steps, replay %s\n",
                     v.tape_steps, v.shrunk_steps, v.shrunk_replay_ok ? "verified" : "FAILED");
      }
    }
    runs.push_back(std::move(r));
  }

  const std::string doc = campaign_json(runs, opts).dump(2);
  if (out_path.empty()) {
    std::printf("%s\n", doc.c_str());
  } else {
    std::ofstream out(out_path);
    out << doc << "\n";
    if (!out) {
      std::fprintf(stderr, "efd_campaign: cannot write %s\n", out_path.c_str());
      return 6;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return all_ok ? 0 : 1;
}

/// Non-blocking line reader over a FIFO (or any file): each poll() returns
/// one `<target> <plan-text>` submission. Malformed lines (bad plan text,
/// missing target) are reported to stderr and dropped — a typo in the queue
/// must not take the farm down. EOF with no writer is quiet: a FIFO opened
/// O_RDONLY|O_NONBLOCK reads 0 bytes until the next writer connects.
class FifoPlanSource final : public PlanSource {
 public:
  explicit FifoPlanSource(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open queue " + path + ": " + std::strerror(errno));
    }
  }
  FifoPlanSource(const FifoPlanSource&) = delete;
  FifoPlanSource& operator=(const FifoPlanSource&) = delete;
  ~FifoPlanSource() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::optional<std::pair<std::string, FaultPlan>> poll() override {
    for (;;) {
      if (auto sub = take_line()) return sub;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;  // drained (or EAGAIN / no writer yet)
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  std::optional<std::pair<std::string, FaultPlan>> take_line() {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl == std::string::npos) return std::nullopt;
      const std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (line.empty() || line[0] == '#') continue;
      const auto sp = line.find(' ');
      if (sp == std::string::npos) {
        std::fprintf(stderr, "efd_campaign: queue line without plan text dropped: %s\n",
                     line.c_str());
        continue;
      }
      try {
        FaultPlan plan = FaultPlan::parse(line.substr(sp + 1));
        return std::make_pair(line.substr(0, sp), std::move(plan));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "efd_campaign: malformed queue plan dropped (%s): %s\n", e.what(),
                     line.c_str());
      }
    }
  }

  std::string path_;
  int fd_ = -1;
  std::string buf_;
};

int cmd_serve(int argc, char** argv) {
  FarmOptions opts;
  std::vector<std::string> names;
  std::string out_path;
  std::string queue_path;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      if (!cli::parse_seed(argv[++i], opts.seed)) return usage();
    } else if (!std::strcmp(argv[i], "--target") && i + 1 < argc) {
      names.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--corpus") && i + 1 < argc) {
      opts.corpus_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed-corpus") && i + 1 < argc) {
      opts.seed_corpora.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], opts.workers, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], opts.batch, 1)) return usage();
    } else if (!std::strcmp(argv[i], "--duration") && i + 1 < argc) {
      if (!cli::parse_seconds(argv[++i], opts.duration_s)) return usage();
    } else if (!std::strcmp(argv[i], "--max-plans") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], opts.max_plans, 0)) return usage();
    } else if (!std::strcmp(argv[i], "--queue") && i + 1 < argc) {
      queue_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--soak-interval") && i + 1 < argc) {
      if (!cli::parse_seconds(argv[++i], opts.soak_interval_s)) return usage();
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-monitors")) {
      opts.monitors = false;
    } else if (!std::strcmp(argv[i], "--no-shrink")) {
      opts.shrink = false;
    } else if (!std::strcmp(argv[i], "--no-mutate")) {
      opts.mutate = false;
    } else {
      return usage();
    }
  }

  bool names_ok = false;
  const std::vector<const CampaignTarget*> picked = pick_targets(names, &names_ok);
  if (!names_ok) return 2;

  std::unique_ptr<FifoPlanSource> queue;
  if (!queue_path.empty()) {
    queue = std::make_unique<FifoPlanSource>(queue_path);
    opts.source = queue.get();
  }

  opts.stop = &g_stop;
  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);

  std::string final_doc;
  opts.on_soak = [&final_doc](const telemetry::Json& rec) {
    const std::string line = rec.dump(0);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    final_doc = line;  // the "final" record is always the last one emitted
  };

  const FarmStats stats = run_farm(picked, opts);
  std::fprintf(stderr,
               "farm: %" PRId64 " plans in %.1fs (%.0f plans/s), %" PRId64 " clean, %" PRId64
               " violations (%" PRId64 " novel, %" PRId64 " duplicate), corpus %zu entries"
               " (+%zu aliases)%s\n",
               stats.plans, stats.elapsed_s,
               stats.elapsed_s > 0 ? static_cast<double>(stats.plans) / stats.elapsed_s : 0.0,
               stats.clean, stats.violations, stats.novel, stats.duplicates, stats.corpus_size,
               stats.corpus_aliases, stats.drained ? "  [drained]" : "");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << farm_json(stats, opts, "final").dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "efd_campaign: cannot write %s\n", out_path.c_str());
      return 6;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }

  // Verdict: expect-clean targets must have zero violations; a drain is not
  // a failure. Buggy targets are allowed to keep re-finding their bug.
  for (const auto& t : stats.targets) {
    if (t.expect_clean && (t.safety_violations > 0 || t.wait_free_violations > 0)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  } catch (const efd::CorpusIoError& e) {
    std::fprintf(stderr, "efd_campaign: %s\n", e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_campaign: %s\n", e.what());
    return 6;
  }
  return usage();
}
