// Run-level telemetry: cheap, always-on counters of one World execution.
//
// RunStats is carried by every World and incremented inside step() and
// inject_crash() — a handful of integer adds per model step, so it stays on
// even in exploration hot loops. The block absorbs the ad-hoc per-bench
// counters of earlier PRs (steps, footprint, writes) into one place with a
// checkable invariant:
//
//     steps == reads + writes + queries + yields + decides + null_steps
//     steps == trace.size()                     (when tracing is enabled)
//
// crashed_attempts counts step(pid) calls that returned false (crashed
// S-process): no time passes and no trace record is produced, so they are
// deliberately OUTSIDE the invariant above.
//
// AdmissionStats mirrors the bookkeeping of sim/schedule's AdmissionWindow
// (admissions, retirements, peak active) — the quantities the paper's
// k-concurrency bound is about. The struct lives here so World, schedulers
// and the bench layer share one vocabulary.
#pragma once

#include <cstdint>
#include <string>

namespace efd {

class World;

/// Counters of one World's execution. Steps are counted by the op kind the
/// scheduled process executed; null steps (terminated processes) separately.
struct RunStats {
  std::int64_t steps = 0;             ///< successful step() calls (time advanced)
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t queries = 0;           ///< failure-detector queries (S-processes)
  std::int64_t yields = 0;
  std::int64_t decides = 0;
  std::int64_t sends = 0;             ///< message sends (message substrates)
  std::int64_t recvs = 0;             ///< mailbox dequeues (message substrates)
  std::int64_t delivers = 0;          ///< in-flight -> mailbox deliveries
  std::int64_t null_steps = 0;        ///< steps of already-terminated processes
  std::int64_t crashed_attempts = 0;  ///< step() calls refused (crashed S-process)
  std::int64_t injected_crashes = 0;  ///< crash points applied (fault injection)

  /// Sum of the per-op-kind counters; equals `steps` by construction and
  /// trace.size() when the run was traced (the test_telemetry invariant).
  [[nodiscard]] std::int64_t op_total() const noexcept {
    return reads + writes + queries + yields + decides + sends + recvs + delivers +
           null_steps;
  }
};

/// True iff the deterministic subset of two runs' stats agrees: everything a
/// schedule + environment fixes (step mix, refused steps, injected crashes).
/// Record/replay identity (sim/replay.hpp) is asserted on this subset plus
/// the trace hash.
[[nodiscard]] constexpr bool deterministic_equal(const RunStats& a, const RunStats& b) noexcept {
  return a.steps == b.steps && a.reads == b.reads && a.writes == b.writes &&
         a.queries == b.queries && a.yields == b.yields && a.decides == b.decides &&
         a.sends == b.sends && a.recvs == b.recvs && a.delivers == b.delivers &&
         a.null_steps == b.null_steps && a.crashed_attempts == b.crashed_attempts &&
         a.injected_crashes == b.injected_crashes;
}

/// Admission bookkeeping totals of an AdmissionWindow (k-concurrent runs).
struct AdmissionStats {
  std::int64_t admitted = 0;   ///< processes ever admitted into the window
  std::int64_t retired = 0;    ///< processes retired (decided OR terminated)
  int peak_active = 0;         ///< max simultaneously admitted, unfinished
};

/// Human-readable run report: step mix, decisions and register footprint
/// of `w` — what examples/quickstart prints.
[[nodiscard]] std::string format_run_report(const World& w);

}  // namespace efd
