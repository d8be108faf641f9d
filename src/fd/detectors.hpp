// Concrete failure detectors (paper §2.3 and [28]).
//
// Each detector maps a failure pattern (plus a seed and a stabilization time
// GST) to one history. Before GST outputs are adversarial seed-derived noise
// that still respects the detector's per-sample type (e.g. ¬Ωk always emits a
// set of exactly n−k process ids); from GST on the eventual promise holds.
// Each detector also ships a `check` that verifies a history against the
// detector's specification on a finite horizon — used by tests and by the
// reduction harness to validate emulated detectors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fd/failure_pattern.hpp"
#include "fd/history.hpp"
#include "sim/hash.hpp"

namespace efd {

/// Seeded noise: a splitmix64-finalized hash of (seed, qi, t, salt). The
/// concrete detectors draw their pre-GST output from it, and the faulty
/// wrappers (fd/faulty.hpp) their corruption.
[[nodiscard]] constexpr std::uint64_t detector_noise(std::uint64_t seed, int qi, Time t,
                                                     std::uint64_t salt) noexcept {
  return splitmix64_finalize(seed ^ (static_cast<std::uint64_t>(qi) << 32) ^
                             static_cast<std::uint64_t>(t) ^ (salt * kGoldenGamma));
}

/// Abstract failure detector D.
class FailureDetector {
 public:
  virtual ~FailureDetector() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// One history in D(F), deterministic in (F, seed).
  [[nodiscard]] virtual HistoryPtr history(const FailurePattern& f, std::uint64_t seed) const = 0;

  /// Earliest time from which this detector's history (as produced above) is
  /// guaranteed to satisfy its eventual promise for pattern `f`.
  [[nodiscard]] virtual Time stabilization_time(const FailurePattern& f) const = 0;
};

using DetectorPtr = std::shared_ptr<const FailureDetector>;

/// The trivial detector: always outputs ⊥. Solving a task with it is exactly
/// wait-free (restricted-algorithm) solvability when n ≥ m (Prop. 2).
class TrivialFd final : public FailureDetector {
 public:
  [[nodiscard]] std::string name() const override { return "trivial"; }
  [[nodiscard]] HistoryPtr history(const FailurePattern&, std::uint64_t) const override;
  [[nodiscard]] Time stabilization_time(const FailurePattern&) const override { return 0; }
};

/// Ω: eventually every correct S-process permanently outputs the same correct
/// S-process id. Output encoding: Int (0-based S-index).
class OmegaFd final : public FailureDetector {
 public:
  explicit OmegaFd(Time gst) : gst_(gst) {}
  [[nodiscard]] std::string name() const override { return "Omega"; }
  [[nodiscard]] HistoryPtr history(const FailurePattern& f, std::uint64_t seed) const override;
  [[nodiscard]] Time stabilization_time(const FailurePattern& f) const override;

  /// Spec check on [0, horizon): some correct leader is output by every alive
  /// process at every time ≥ some τ < horizon.
  static bool check(const FailurePattern& f, const History& h, Time horizon);

 private:
  Time gst_;
};

/// ¬Ωk (anti-Omega-k): each sample is a set of exactly n−k S-ids; eventually
/// some correct process is never output at any correct process. Output
/// encoding: Vec of n−k Ints, sorted.
class AntiOmegaK final : public FailureDetector {
 public:
  AntiOmegaK(int k, Time gst) : k_(k), gst_(gst) {}
  [[nodiscard]] std::string name() const override { return "antiOmega" + std::to_string(k_); }
  [[nodiscard]] HistoryPtr history(const FailurePattern& f, std::uint64_t seed) const override;
  [[nodiscard]] Time stabilization_time(const FailurePattern& f) const override;
  [[nodiscard]] int k() const noexcept { return k_; }

  static bool check(int k, const FailurePattern& f, const History& h, Time horizon);

 private:
  int k_;
  Time gst_;
};

/// Vector-Ω-k (written →Ωk in the paper): each sample is a k-vector of S-ids;
/// eventually at least one position stabilizes on the same correct process at
/// all correct processes. Equivalent to ¬Ωk [28]. Output encoding: Vec of k
/// Ints.
class VectorOmegaK final : public FailureDetector {
 public:
  VectorOmegaK(int k, Time gst) : k_(k), gst_(gst) {}
  [[nodiscard]] std::string name() const override { return "vecOmega" + std::to_string(k_); }
  [[nodiscard]] HistoryPtr history(const FailurePattern& f, std::uint64_t seed) const override;
  [[nodiscard]] Time stabilization_time(const FailurePattern& f) const override;
  [[nodiscard]] int k() const noexcept { return k_; }
  /// The vector slot that stabilizes in histories produced by this instance.
  [[nodiscard]] int stable_slot(const FailurePattern& f, std::uint64_t seed) const;

  static bool check(int k, const FailurePattern& f, const History& h, Time horizon);

 private:
  int k_;
  Time gst_;
};

/// The →Ωk → ¬Ωk transformation of [28] on one sample: the ¬Ωk sample whose
/// ids are the S-ids in [0, n) that no slot of the →Ωk sample `slots` names,
/// ascending. Duplicate slots leave the complement too large; it is
/// truncated to exactly n−k ids.
[[nodiscard]] Value vec_omega_complement(const Value& slots, int n, int k);

/// The eventually-perfect-style detector ◇P restricted to completeness +
/// eventual accuracy: outputs the set of S-ids it currently suspects.
/// Encoding: Vec of Ints (sorted suspect list). Included as a strong
/// reference point for reduction experiments.
class EventuallyPerfectFd final : public FailureDetector {
 public:
  explicit EventuallyPerfectFd(Time gst) : gst_(gst) {}
  [[nodiscard]] std::string name() const override { return "diamondP"; }
  [[nodiscard]] HistoryPtr history(const FailurePattern& f, std::uint64_t seed) const override;
  [[nodiscard]] Time stabilization_time(const FailurePattern& f) const override;

 private:
  Time gst_;
};

}  // namespace efd
