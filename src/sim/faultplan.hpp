// Fault plans: one value type for everything a campaign can do to a run.
//
// A FaultPlan unifies the repository's fault families behind one seedable,
// serializable artifact:
//
//  * crash storms      — unconditional step-indexed S-crashes (CrashPoint);
//  * crash triggers    — targeted kills generalizing PR 4's hand-built
//                        "kill the leader after its next ACC write": watch
//                        the trace for the k-th matching S-op on a register
//                        prefix, crash that S-process `delay` steps later;
//  * advice corruption — wrap the scenario's detector in a fd/faulty.hpp
//                        family (lying / omissive / stuttering) until a GST;
//  * starvation bursts — unfair-but-eventually-fair scheduling: suppress one
//                        process over a step-index window (BurstScheduler);
//  * link faults       — step-indexed charges against a message world's
//                        links (sim/channel.hpp): drop/dup/delay/reorder the
//                        next deliveries of ch[i][j], or sever it for a
//                        bounded window (always paired with a heal, so a
//                        plan can partition transiently, never permanently).
//
// FaultPlan::drive_faults resolves the storm, the triggers and the link
// actions for drive_with_faults (sim/schedule.hpp), the loop that replay
// drives through too, so storms and trigger kills resolve ONLINE into
// concrete, tape-ready CrashPoints (PlanDriveResult::applied) that replay at
// the same step indices. Advice corruption is baked into the FD samples the
// trace records, and bursts are baked into the recorded pid schedule — so a
// recorded campaign failure is a plain `efd-tape-v1` tape that replays and
// ddmin-shrinks with the existing machinery, no plan object needed. The
// plan's one-line to_string() is attached to the tape as a `plan`
// provenance line (ScheduleTape::plan).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fd/faulty.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"

namespace efd {

/// Suppress `victim` while the schedule-step index lies in
/// [start_step, start_step + length). Finite, so eventual fairness of the
/// underlying scheduler is preserved.
struct StarvationBurst {
  std::int64_t start_step = 0;
  std::int64_t length = 0;
  Pid victim{};

  friend bool operator==(const StarvationBurst&, const StarvationBurst&) = default;
};

/// One link-layer fault: charge link ch[from][to] with `kind` when the drive
/// reaches schedule step `step`. `amount` is the charge count (how many
/// deliveries to drop/dup/delay, or the reorder window); for kSever it is
/// the sever WINDOW — resolve_links turns a sever into a sever charge at
/// `step` plus a heal at `step + amount`.
struct LinkAction {
  LinkFaultKind kind = LinkFaultKind::kDrop;
  std::int64_t step = 0;
  int from = 0;   ///< sender index i of ch[i][j]
  int to = 0;     ///< mailbox index j of ch[i][j]
  int amount = 1; ///< >= 1: charge count / sever window length

  friend bool operator==(const LinkAction&, const LinkAction&) = default;
};

/// Advice corruption window (applied via make_faulty on the target's base
/// detector). kind == kNone means the advice is left honest.
struct FdFault {
  FdFaultKind kind = FdFaultKind::kNone;
  Time gst = 0;   ///< corruption window bound (wrapper stabilization)
  int param = 8;  ///< drop_period / stutter period

  friend bool operator==(const FdFault&, const FdFault&) = default;
};

class FaultPlan {
 public:
  std::vector<CrashPoint> storm;        ///< unconditional step-indexed kills
  std::vector<CrashTrigger> triggers;   ///< targeted kills
  FdFault fd;                           ///< advice corruption
  std::vector<StarvationBurst> bursts;  ///< scheduler starvation windows
  std::vector<LinkAction> links;        ///< message-link fault charges

  [[nodiscard]] bool empty() const {
    return storm.empty() && triggers.empty() && bursts.empty() && links.empty() &&
           fd.kind == FdFaultKind::kNone;
  }

  /// Wraps `base` advice per the plan's FdFault.
  [[nodiscard]] DetectorPtr corrupt(DetectorPtr base) const {
    return make_faulty(fd.kind, std::move(base), fd.gst, fd.param);
  }

  /// One-line canonical text ("plan-v1; fd lying 40 8; storm 12 3; ...");
  /// round-trips through parse. Attached to tapes as provenance.
  [[nodiscard]] std::string to_string() const;
  /// Inverse of to_string; throws std::invalid_argument on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& text);

  /// The plan's link actions as tape-ready LinkFaultPoints against the
  /// canonical link names ("ch[i][j]"), stably sorted by step index. Each
  /// kSever action expands into a sever/heal pair `amount` steps apart, so
  /// every resolved sequence heals what it severs. No grid bounds are
  /// checked here — charging skips links the target world does not have.
  [[nodiscard]] std::vector<LinkFaultPoint> resolve_links() const;

  /// The plan's faults for drive_with_faults: the storm, the triggers and
  /// resolve_links(). A plan may be wider than its world; the drive skips
  /// the faults the world cannot take. Starvation bursts are not drive
  /// faults (wrap the scheduler in a BurstScheduler), and advice corruption
  /// happens at world construction (corrupt()).
  [[nodiscard]] DriveFaults drive_faults() const { return {storm, resolve_links(), triggers}; }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

  /// The dimensions a campaign target exposes for plan sampling.
  struct Space {
    int num_s = 0;
    int num_c = 0;
    std::int64_t horizon = 2000;  ///< step-index range for storms and bursts
    int max_crashes = 0;          ///< cap on S-kills (storm + triggers)
    std::vector<std::string> trigger_prefixes;  ///< registers worth targeting
    bool allow_fd_faults = true;
    Time max_gst = 0;             ///< 0: horizon / 4
    int max_bursts = 2;
    std::int64_t max_burst_len = 0;  ///< 0: horizon / 8
    // Link-fault dimensions; all zero for shared-memory targets (sampling
    // then never emits link actions and clamping strips any present).
    int mp_senders = 0;      ///< link grid rows of ch[i][j] (0: no links)
    int mp_mailboxes = 0;    ///< link grid columns
    int max_link_actions = 0;         ///< cap on link actions per plan
    int max_link_charge = 3;          ///< per-action drop/dup/delay charge cap
    std::int64_t max_sever_window = 0;  ///< 0: horizon / 8
  };

  /// Deterministic pseudo-random plan. Storm sizes, trigger choices, FD
  /// corruption and bursts are all drawn from `seed`; the same (seed, space)
  /// always yields the same plan.
  [[nodiscard]] static FaultPlan sample(std::uint64_t seed, const Space& space);

  /// Coverage-guided mutation (the campaign farm's search move): applies one
  /// or two small operators to a copy of this plan — perturb a storm point's
  /// step index or victim, perturb a trigger's delay/occurrence, widen or
  /// narrow the FD corruption window (double/halve gst, clamped to
  /// [1, max_gst]), jitter a burst's window or victim, or add/drop one fault
  /// element within the space's caps. Deterministic in (this, seed, space);
  /// the result always respects `space` (crash cap, burst cap, horizon).
  [[nodiscard]] FaultPlan mutate(std::uint64_t seed, const Space& space) const;

  /// Crossover: a's crash faults (storm + triggers) combined with b's advice
  /// corruption and a seeded interleaving of both plans' bursts, re-clamped
  /// to the space caps. Deterministic in (a, b, seed, space).
  [[nodiscard]] static FaultPlan splice(const FaultPlan& a, const FaultPlan& b,
                                        std::uint64_t seed, const Space& space);
};

/// Wraps an inner scheduler and suppresses each burst's victim while the
/// attempt index (== drive step index) is inside the burst window: the inner
/// scheduler is re-polled (bounded) until it proposes someone else. If the
/// inner scheduler insists on the victim — e.g. a 1-concurrent admission
/// window whose only admitted process IS the victim — the burst yields and
/// the victim steps anyway: a burst may starve a process, never override the
/// inner scheduler's invariants or stall the whole world (finite bursts keep
/// runs eventually fair).
class BurstScheduler final : public Scheduler {
 public:
  BurstScheduler(Scheduler& inner, std::vector<StarvationBurst> bursts)
      : inner_(inner), bursts_(std::move(bursts)) {}

  [[nodiscard]] std::optional<Pid> next(const World& w) override;

 private:
  [[nodiscard]] bool suppressed(Pid pid, std::int64_t step) const;

  Scheduler& inner_;
  std::vector<StarvationBurst> bursts_;
  std::int64_t attempt_ = 0;
};

}  // namespace efd
