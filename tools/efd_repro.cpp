// efd_repro: record / replay / shrink `efd-tape-v1` schedule tapes.
//
//   efd_repro list
//   efd_repro record <scenario> [--seed N] [-o out.tape]
//   efd_repro print  <tape>
//   efd_repro replay <tape>
//   efd_repro shrink <tape> [-o out.tape] [--max-rounds N]
//
// `record` runs a scenario's native recording (its own scheduler, detector
// and fault plan) and writes a self-contained tape. `replay` rebuilds the
// scenario's world around the tape's environment, replays the schedule with
// its crash points, and checks both expectations (trace hash, predicate
// outcome); exit status 0 iff everything matches. `shrink` ddmin-minimizes a
// tape while its predicate outcome is preserved and RE-STAMPS its
// expectations from the minimized tape's replay (shrink_finding,
// core/repro_scenarios.hpp; the recorded hash certified the original
// schedule only); it exits 1 if a second replay does not match them.
//
// Exit codes (stable; scripted triage relies on them):
//   0  success / replay matched expectations
//   1  replay ran but an expectation failed (hash or predicate mismatch)
//   2  usage error
//   3  malformed or truncated tape (TapeParseError; line-numbered diagnostic)
//   4  tape file could not be read or written (TapeIoError)
//   5  tape names an unknown or missing scenario
//   6  any other error
//
// --seed takes an unsigned 64-bit integer and --max-rounds an integer >= 1,
// as whole tokens (tools/cli_args.hpp); anything else is a usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cli_args.hpp"
#include "core/repro_scenarios.hpp"
#include "core/shrink.hpp"
#include "sim/replay.hpp"
#include "sim/stats.hpp"

namespace {

using namespace efd;

int usage() {
  std::fprintf(stderr,
               "usage: efd_repro list\n"
               "       efd_repro record <scenario> [--seed N] [-o out.tape]\n"
               "       efd_repro print  <tape>\n"
               "       efd_repro replay <tape>\n"
               "       efd_repro shrink <tape> [-o out.tape] [--max-rounds N]\n");
  return 2;
}

int cmd_list() {
  for (const auto& sc : scenarios()) {
    std::printf("%-26s %s\n", sc.name.c_str(), sc.summary.c_str());
  }
  return 0;
}

/// Exit code 5: the tape parsed fine but cannot be bound to process bodies.
class UnknownScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

const Scenario& required_scenario(const ScheduleTape& tape) {
  if (tape.scenario.empty()) {
    throw UnknownScenarioError("tape names no scenario; cannot rebuild its world");
  }
  const Scenario* sc = find_scenario(tape.scenario);
  if (!sc) throw UnknownScenarioError("unknown scenario '" + tape.scenario + "'");
  return *sc;
}

void print_summary(const ScheduleTape& t) {
  std::printf("format    %s\n", ScheduleTape::kFormat);
  std::printf("scenario  %s\n", t.scenario.empty() ? "(none)" : t.scenario.c_str());
  if (!t.plan.empty()) std::printf("plan      %s\n", t.plan.c_str());
  if (!t.finding.empty()) std::printf("finding   %s\n", t.finding.c_str());
  if (!t.substrate.empty()) std::printf("substrate %s\n", t.substrate.c_str());
  std::printf("s         %d\n", t.num_s);
  int base_crashes = 0;
  for (const auto& c : t.base_crash) {
    if (c) ++base_crashes;
  }
  std::printf("pattern   %d base crash(es)\n", base_crashes);
  std::printf("injected  %zu crash point(s)\n", t.crashes.size());
  for (const auto& c : t.crashes) {
    std::printf("          step %" PRId64 " -> q%d\n", c.step_index, c.s_index + 1);
  }
  if (!t.linkfaults.empty()) {
    std::printf("linkfaults %zu charge(s)\n", t.linkfaults.size());
    for (const auto& p : t.linkfaults) {
      std::printf("          step %" PRId64 " %s %s x%d\n", p.step_index,
                  link_fault_token(p.kind), p.link.c_str(), p.amount);
    }
  }
  std::printf("fd        %zu delta(s)\n", t.fd.size());
  std::printf("steps     %zu\n", t.steps.size());
  if (t.expect_hash) std::printf("hash      %016" PRIx64 "\n", *t.expect_hash);
  if (t.expect_violated) std::printf("expect    %s\n", *t.expect_violated ? "violated" : "ok");
}

int cmd_record(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  std::uint64_t seed = 1;
  std::string out = name + ".tape";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      if (!cli::parse_seed(argv[++i], seed)) return usage();
    } else if (!std::strcmp(argv[i], "-o") && i + 1 < argc) {
      out = argv[++i];
    } else {
      return usage();
    }
  }
  const Scenario* sc = find_scenario(name);
  if (!sc) {
    std::fprintf(stderr, "unknown scenario '%s' (try: efd_repro list)\n", name.c_str());
    return 2;
  }
  const ScheduleTape tape = sc->record(seed);
  save_tape(tape, out);
  std::printf("recorded %s (seed %" PRIu64 ") -> %s\n", name.c_str(), seed, out.c_str());
  print_summary(tape);
  return 0;
}

int cmd_print(int argc, char** argv) {
  if (argc != 1) return usage();
  const ScheduleTape tape = load_tape(argv[0]);
  print_summary(tape);
  // Best-effort step rendering: when the tape's scenario is registered,
  // replay it and print the trace — send/recv/deliver and register steps
  // alike render through StepRecord::to_string (sim/trace.cpp), so MP tapes
  // print legibly. Unknown or unbound scenarios keep the summary-only
  // behavior (and the malformed-tape exit codes above are unaffected: the
  // tape already parsed by the time we get here).
  if (const Scenario* sc = find_scenario(tape.scenario)) {
    World w = sc->make_world(tape.pattern(), tape.history());
    replay_tape(w, tape);
    constexpr std::size_t kPrintLimit = 60;
    std::printf("--- steps (first %zu) ---\n%s", kPrintLimit,
                format_trace(w.trace(), kPrintLimit).c_str());
    if (!tape.linkfaults.empty()) {
      // What the re-charged fabric actually did to deliveries this replay.
      const LinkFaultCounters fc = w.substrate().link_fault_counters();
      std::printf("--- link-fault deliveries ---\n");
      std::printf("dropped %" PRId64 "  duplicated %" PRId64 "  delayed %" PRId64
                  "  reordered %" PRId64 "  held_severed %" PRId64 "  lost_sends %" PRId64 "\n",
                  fc.dropped, fc.duplicated, fc.delayed, fc.reordered, fc.held_severed,
                  fc.lost_sends);
    }
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc != 1) return usage();
  const ScheduleTape tape = load_tape(argv[0]);
  const Scenario& sc = required_scenario(tape);
  const ScenarioReplayOutcome out = replay_in_scenario(sc, tape);
  std::printf("replayed  %zu-step tape (%" PRId64 " steps driven)\n", tape.steps.size(),
              out.replay.drive.steps);
  std::printf("hash      %016" PRIx64 " %s\n", out.replay.hash,
              tape.expect_hash ? (out.replay.hash_match ? "(match)" : "(MISMATCH)")
                               : "(unchecked)");
  std::printf("predicate %s%s\n", out.violated ? "violated" : "ok",
              tape.expect_violated
                  ? (*tape.expect_violated == out.violated ? " (as expected)" : " (UNEXPECTED)")
                  : "");
  // Tapes kept for a liveness finding replay "predicate ok" by design — the
  // finding line is what tells triage this was a wait-freedom violation, not
  // a mislabeled clean run.
  if (!tape.finding.empty()) std::printf("finding   %s\n", tape.finding.c_str());
  if (out.stats.injected_crashes > 0) {
    std::printf("faults    %" PRId64 " crash point(s) applied\n", out.stats.injected_crashes);
  }
  if (!tape.linkfaults.empty()) {
    std::printf("linkfaults %zu charge(s) re-applied\n", tape.linkfaults.size());
  }
  return out.matches(tape) ? 0 : 1;
}

int cmd_shrink(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string in = argv[0];
  std::string out = in + ".min";
  ShrinkOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-o") && i + 1 < argc) {
      out = argv[++i];
    } else if (!std::strcmp(argv[i], "--max-rounds") && i + 1 < argc) {
      if (!cli::parse_int(argv[++i], opts.max_rounds, 1)) return usage();
    } else {
      return usage();
    }
  }
  const ScheduleTape tape = load_tape(in);
  const Scenario& sc = required_scenario(tape);
  ShrinkStats stats;
  const ShrunkFinding sf = shrink_finding(sc.name, tape, opts, &stats);
  const ScheduleTape& min = sf.mini;
  save_tape(min, out);

  std::printf("shrunk    %zu -> %zu steps, %zu -> %zu crash point(s)\n", tape.steps.size(),
              min.steps.size(), tape.crashes.size(), min.crashes.size());
  if (!tape.linkfaults.empty() || !min.linkfaults.empty()) {
    std::printf("          %zu -> %zu link-fault charge(s)\n", tape.linkfaults.size(),
                min.linkfaults.size());
  }
  std::printf("          %" PRId64 " candidate replays, %d round(s)%s\n", stats.candidates,
              stats.rounds, stats.reached_fixpoint ? ", fixpoint" : "");
  std::printf("wrote     %s\n", out.c_str());
  if (!sf.replay_ok) std::printf("replay    MISMATCH against the fresh stamps\n");
  return sf.replay_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "record") return cmd_record(argc - 2, argv + 2);
    if (cmd == "print") return cmd_print(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "shrink") return cmd_shrink(argc - 2, argv + 2);
  } catch (const TapeParseError& e) {
    std::fprintf(stderr, "efd_repro: malformed tape: %s\n", e.what());
    return 3;
  } catch (const TapeIoError& e) {
    std::fprintf(stderr, "efd_repro: %s\n", e.what());
    return 4;
  } catch (const UnknownScenarioError& e) {
    std::fprintf(stderr, "efd_repro: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_repro: %s\n", e.what());
    return 6;
  }
  return usage();
}
