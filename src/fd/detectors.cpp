#include "fd/detectors.hpp"

#include <algorithm>

namespace efd {
namespace {

// The canonical "safe" correct process: the smallest correct index.
int safe_process(const FailurePattern& f) {
  const auto c = f.correct_set();
  return c.empty() ? 0 : c.front();
}

Value sorted_set_value(std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  ValueVec out;
  out.reserve(ids.size());
  for (int id : ids) out.emplace_back(id);
  return Value(std::move(out));
}

// A pseudo-random subset of {0..n-1} of size `sz` (clamped into [0, n]:
// anti-Omega-k with k > n would otherwise ask for a negative size, and the
// size_t cast in resize would turn that into a huge allocation).
std::vector<int> noise_subset(int n, int sz, std::uint64_t seed, int qi, Time t) {
  sz = std::max(0, std::min(sz, n));
  std::vector<int> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < sz; ++i) {
    const auto j =
        i + static_cast<int>(detector_noise(seed, qi, t, static_cast<std::uint64_t>(i)) %
                             static_cast<std::uint64_t>(n - i));
    std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
  }
  ids.resize(static_cast<std::size_t>(sz));
  return ids;
}

}  // namespace

Value vec_omega_complement(const Value& slots, int n, int k) {
  std::vector<bool> named(static_cast<std::size_t>(n), false);
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const auto id = slots.at(j).int_or(-1);
    if (id >= 0 && id < n) named[static_cast<std::size_t>(id)] = true;
  }
  ValueVec out;
  for (int i = 0; i < n && static_cast<int>(out.size()) < n - k; ++i) {
    if (!named[static_cast<std::size_t>(i)]) out.emplace_back(i);
  }
  return Value(std::move(out));
}

// ---------------------------------------------------------------- trivial

HistoryPtr TrivialFd::history(const FailurePattern&, std::uint64_t) const {
  return std::make_shared<FnHistory>([](int, Time) { return Value{}; });
}

// ------------------------------------------------------------------ Omega

HistoryPtr OmegaFd::history(const FailurePattern& f, std::uint64_t seed) const {
  const int n = f.n();
  // Zero-S world: there is nobody to elect (and the pre-stable noise would
  // divide by zero); the module output is ⊥ forever.
  if (n == 0) {
    return std::make_shared<FnHistory>([](int, Time) { return Value{}; });
  }
  const int safe = safe_process(f);
  const Time stable = stabilization_time(f);
  return std::make_shared<FnHistory>([n, safe, stable, seed](int qi, Time t) {
    if (t >= stable) return Value(safe);
    return Value(static_cast<int>(detector_noise(seed, qi, t, 7) % static_cast<std::uint64_t>(n)));
  });
}

Time OmegaFd::stabilization_time(const FailurePattern& f) const {
  return std::max(gst_, f.last_crash_time() + 1);
}

bool OmegaFd::check(const FailurePattern& f, const History& h, Time horizon) {
  const auto correct = f.correct_set();
  if (correct.empty() || horizon <= 0) return false;
  const Value last = h.at(correct.front(), horizon - 1);
  if (!last.is_int()) return false;
  const int leader = static_cast<int>(last.as_int());
  if (!f.correct(leader)) return false;
  // Finite-horizon reading of "eventually forever": every correct process
  // outputs `leader` throughout at least the last quarter of the horizon
  // (a 1-step suffix would make the check vacuously true).
  const Time tail_start = horizon - std::max<Time>(1, horizon / 4);
  for (Time t = horizon - 1; t >= 0; --t) {
    for (int qi : correct) {
      if (h.at(qi, t) != last) return t < tail_start;
    }
  }
  return true;
}

// ------------------------------------------------------------- anti-Omega-k

HistoryPtr AntiOmegaK::history(const FailurePattern& f, std::uint64_t seed) const {
  const int n = f.n();
  const int k = k_;
  const int safe = safe_process(f);
  const Time stable = stabilization_time(f);
  // Stable output: the first n-k non-safe ids in sorted order.
  std::vector<int> stable_ids;
  for (int i = 0; i < n && static_cast<int>(stable_ids.size()) < n - k; ++i) {
    if (i != safe) stable_ids.push_back(i);
  }
  const Value stable_out = sorted_set_value(stable_ids);
  return std::make_shared<FnHistory>([n, k, stable, stable_out, seed](int qi, Time t) {
    if (t >= stable) return stable_out;
    return sorted_set_value(noise_subset(n, n - k, seed, qi, t));
  });
}

Time AntiOmegaK::stabilization_time(const FailurePattern& f) const {
  return std::max(gst_, f.last_crash_time() + 1);
}

bool AntiOmegaK::check(int k, const FailurePattern& f, const History& h, Time horizon) {
  const int n = f.n();
  const auto correct = f.correct_set();
  if (correct.empty() || horizon <= 0) return false;
  // Every sample must be a set of exactly n-k ids.
  for (int qi : correct) {
    for (Time t = 0; t < horizon; ++t) {
      const Value v = h.at(qi, t);
      if (!v.is_vec() || static_cast<int>(v.size()) != n - k) return false;
    }
  }
  // Some correct process is absent from all correct samples throughout at
  // least the last quarter of the horizon (the finite-horizon reading of
  // "eventually never output"; a 1-step suffix would be vacuous).
  const Time tail_start = horizon - std::max<Time>(1, horizon / 4);
  for (int cand : correct) {
    Time last_seen = -1;
    for (int qi : correct) {
      for (Time t = 0; t < horizon; ++t) {
        const Value v = h.at(qi, t);
        for (std::size_t j = 0; j < v.size(); ++j) {
          if (v.at(j).int_or(-1) == cand) last_seen = std::max(last_seen, t);
        }
      }
    }
    if (last_seen < tail_start) return true;
  }
  return false;
}

// ----------------------------------------------------------- vector-Omega-k

HistoryPtr VectorOmegaK::history(const FailurePattern& f, std::uint64_t seed) const {
  const int n = f.n();
  // Zero-S world: nothing to point at (and the rotating noise would divide
  // by zero); every slot is ⊥ forever.
  if (n == 0) {
    const int k = k_;
    return std::make_shared<FnHistory>([k](int, Time) {
      return Value(ValueVec(static_cast<std::size_t>(k)));
    });
  }
  const int k = k_;
  const int safe = safe_process(f);
  const int slot = stable_slot(f, seed);
  const Time stable = stabilization_time(f);
  return std::make_shared<FnHistory>([n, k, safe, slot, stable, seed](int qi, Time t) {
    ValueVec out;
    out.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      if (t >= stable && j == slot) {
        out.emplace_back(safe);
      } else {
        // Rotating noise on non-promised slots: a legal →Ωk history (only the
        // stable slot is constrained) that is deterministically adversarial —
        // under lockstep schedules it keeps handing non-stable instances to
        // fresh proposers, the behaviour the Fig. 1 extraction exploits.
        const auto phase = static_cast<std::uint64_t>(t) + static_cast<std::uint64_t>(13 * j) +
                           static_cast<std::uint64_t>(5 * qi) + seed;
        out.emplace_back(static_cast<int>(phase % static_cast<std::uint64_t>(n)));
      }
    }
    return Value(std::move(out));
  });
}

int VectorOmegaK::stable_slot(const FailurePattern&, std::uint64_t seed) const {
  return static_cast<int>(seed % static_cast<std::uint64_t>(k_));
}

Time VectorOmegaK::stabilization_time(const FailurePattern& f) const {
  return std::max(gst_, f.last_crash_time() + 1);
}

bool VectorOmegaK::check(int k, const FailurePattern& f, const History& h, Time horizon) {
  const auto correct = f.correct_set();
  if (correct.empty() || horizon <= 0) return false;
  for (int slot = 0; slot < k; ++slot) {
    const Value last = h.at(correct.front(), horizon - 1).at(static_cast<std::size_t>(slot));
    if (!last.is_int() || !f.correct(static_cast<int>(last.as_int()))) continue;
    bool clean = true;
    // Require the stabilization to cover at least the last quarter of the
    // horizon so the check is meaningful for algorithms run past GST.
    const Time tail_start = horizon - std::max<Time>(1, horizon / 4);
    for (Time t = tail_start; t < horizon && clean; ++t) {
      for (int qi : correct) {
        if (h.at(qi, t).at(static_cast<std::size_t>(slot)) != last) {
          clean = false;
          break;
        }
      }
    }
    if (clean) return true;
  }
  return false;
}

// --------------------------------------------------------------- diamond-P

HistoryPtr EventuallyPerfectFd::history(const FailurePattern& f, std::uint64_t seed) const {
  const int n = f.n();
  const Time stable = stabilization_time(f);
  const FailurePattern pat = f;
  return std::make_shared<FnHistory>([n, stable, seed, pat](int qi, Time t) {
    if (t >= stable) {
      std::vector<int> suspects;
      for (int j = 0; j < n; ++j) {
        if (!pat.alive(j, t)) suspects.push_back(j);
      }
      return sorted_set_value(std::move(suspects));
    }
    const int sz = static_cast<int>(detector_noise(seed, qi, t, 3) % static_cast<std::uint64_t>(n));
    return sorted_set_value(noise_subset(n, sz, seed, qi, t));
  });
}

Time EventuallyPerfectFd::stabilization_time(const FailurePattern& f) const {
  return std::max(gst_, f.last_crash_time() + 1);
}

}  // namespace efd
