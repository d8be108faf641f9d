#include "core/shrink.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "sim/hash.hpp"

namespace efd {
namespace {

using Digest = std::pair<std::uint64_t, std::uint64_t>;

/// 128-bit digest of the fields a removal changes: (steps, crashes,
/// linkfaults). Two lanes with different update shapes; each update is a
/// bijection of the lane for a fixed input word, and every list is
/// length-prefixed.
Digest removal_digest(const ScheduleTape& t) {
  std::uint64_t lo = kFnv1aOffsetBasis;
  std::uint64_t hi = kGoldenGamma;
  const auto add = [&lo, &hi](std::uint64_t x) {
    lo = splitmix64_finalize(lo ^ x);
    hi = splitmix64_finalize(std::rotl(hi, 29) + x);
  };
  add(t.steps.size());
  for (const Pid p : t.steps) {
    add(static_cast<std::uint64_t>(p.kind) << 32 | static_cast<std::uint32_t>(p.index));
  }
  add(t.crashes.size());
  for (const CrashPoint& c : t.crashes) {
    add(static_cast<std::uint64_t>(c.step_index));
    add(static_cast<std::uint64_t>(c.s_index));
  }
  add(t.linkfaults.size());
  for (const LinkFaultPoint& p : t.linkfaults) {
    add(static_cast<std::uint64_t>(p.step_index));
    add(fnv1a(p.link));
    add(static_cast<std::uint64_t>(p.kind) << 32 | static_cast<std::uint32_t>(p.amount));
  }
  return {lo, hi};
}

/// Removes steps [begin, end) and remaps fault indices: crash points and
/// link charges past the removed range shift left, those inside it snap to
/// `begin` (the fault still happens, at the seam — step removal never
/// silently drops a fault).
ScheduleTape without_steps(const ScheduleTape& t, std::size_t begin, std::size_t end) {
  ScheduleTape out = t;
  out.steps.erase(out.steps.begin() + static_cast<std::ptrdiff_t>(begin),
                  out.steps.begin() + static_cast<std::ptrdiff_t>(end));
  const auto b = static_cast<std::int64_t>(begin);
  const auto e = static_cast<std::int64_t>(end);
  const auto remap = [b, e](std::int64_t& step_index) {
    if (step_index >= e) {
      step_index -= e - b;
    } else if (step_index > b) {
      step_index = b;
    }
  };
  for (auto& c : out.crashes) remap(c.step_index);
  for (auto& p : out.linkfaults) remap(p.step_index);
  out.expect_hash.reset();  // certified the original schedule only
  return out;
}

/// `t` without entry `idx` of its crash points or link charges.
template <class Point>
ScheduleTape without_point(const ScheduleTape& t, std::vector<Point> ScheduleTape::*points,
                           std::size_t idx) {
  ScheduleTape out = t;
  (out.*points).erase((out.*points).begin() + static_cast<std::ptrdiff_t>(idx));
  out.expect_hash.reset();
  return out;
}

}  // namespace

ScheduleTape shrink_tape(ScheduleTape tape, const TapePredicate& still_fails,
                         const ShrinkOptions& opts, ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats ? *stats : local;
  st = ShrinkStats{};

  ++st.candidates;
  if (!still_fails(tape)) return tape;  // not a counterexample: nothing to do

  // Candidates this call replayed and rejected. A step range or point that
  // was kept once comes up again in later rounds; the predicate is
  // deterministic, so its verdict is already known.
  std::set<Digest> rejected;
  auto try_adopt = [&](const ScheduleTape& cand) {
    const Digest key = removal_digest(cand);
    if (rejected.contains(key)) return false;
    ++st.candidates;
    if (!still_fails(cand)) {
      rejected.insert(key);
      return false;
    }
    st.removed_steps += static_cast<std::int64_t>(tape.steps.size() - cand.steps.size());
    st.removed_crashes += static_cast<std::int64_t>(tape.crashes.size() - cand.crashes.size());
    st.removed_linkfaults +=
        static_cast<std::int64_t>(tape.linkfaults.size() - cand.linkfaults.size());
    tape = cand;
    return true;
  };

  for (st.rounds = 1; st.rounds <= opts.max_rounds; ++st.rounds) {
    bool changed = false;

    // 1. Trailing suffix: greedily halve the truncation length.
    for (std::size_t cut = tape.steps.size() / 2; cut >= 1;) {
      if (cut <= tape.steps.size() &&
          try_adopt(without_steps(tape, tape.steps.size() - cut, tape.steps.size()))) {
        changed = true;
        cut = std::min(cut, tape.steps.size() / 2);
        if (tape.steps.empty()) break;
      } else {
        cut /= 2;
      }
    }

    // 2. ddmin over interior ranges, chunk size halving down to single steps.
    for (std::size_t chunk = std::max<std::size_t>(tape.steps.size() / 2, 1); chunk >= 1;
         chunk /= 2) {
      for (std::size_t i = 0; i + chunk <= tape.steps.size();) {
        if (try_adopt(without_steps(tape, i, i + chunk))) {
          changed = true;  // removed: the next chunk slid into place at i
        } else {
          ++i;
        }
      }
      if (chunk == 1) break;
    }

    // 3. Crash points, then link-fault charges, one at a time (a dropped
    // charge lets the delivery through; the failure must survive without it
    // to adopt).
    const auto drop_each = [&](auto points) {
      for (std::size_t i = 0; i < (tape.*points).size();) {
        if (try_adopt(without_point(tape, points, i))) {
          changed = true;
        } else {
          ++i;
        }
      }
    };
    drop_each(&ScheduleTape::crashes);
    drop_each(&ScheduleTape::linkfaults);

    if (!changed) {
      st.reached_fixpoint = true;
      break;
    }
  }
  return tape;
}

}  // namespace efd
