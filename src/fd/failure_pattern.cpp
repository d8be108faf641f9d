#include "fd/failure_pattern.hpp"

#include <algorithm>
#include <sstream>

#include "sim/hash.hpp"

namespace efd {

std::vector<int> FailurePattern::correct_set() const {
  std::vector<int> out;
  for (int i = 0; i < n(); ++i) {
    if (correct(i)) out.push_back(i);
  }
  return out;
}

std::vector<int> FailurePattern::faulty_set() const {
  std::vector<int> out;
  for (int i = 0; i < n(); ++i) {
    if (!correct(i)) out.push_back(i);
  }
  return out;
}

int FailurePattern::num_correct() const {
  return static_cast<int>(correct_set().size());
}

Time FailurePattern::last_crash_time() const {
  Time t = 0;
  for (int i = 0; i < n(); ++i) {
    if (const auto c = crash_time(i)) t = std::max(t, *c);
  }
  return t;
}

std::string FailurePattern::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i = 0; i < n(); ++i) {
    if (const auto c = crash_time(i)) {
      if (!first) os << ", ";
      first = false;
      os << "q" << (i + 1) << "@" << *c;
    }
  }
  os << "}";
  return first ? std::string("{failure-free}") : os.str();
}

std::vector<FailurePattern> Environment::enumerate(Time crash_time) const {
  std::vector<FailurePattern> out;
  // 1ULL: n_ == 31 or 32 would overflow a 32-bit shift into UB.
  const std::uint64_t limit = 1ULL << n_;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    const int faults = __builtin_popcountll(mask);
    // n_ == 0: keep the one (empty, failure-free) pattern instead of
    // excluding it as "everyone crashed".
    if (faults > t_ || (n_ > 0 && faults == n_)) continue;
    FailurePattern f(n_);
    for (int i = 0; i < n_; ++i) {
      if ((mask >> i) & 1U) f.crash(i, crash_time);
    }
    out.push_back(std::move(f));
  }
  return out;
}

FailurePattern Environment::sample(std::uint64_t seed, int faults, Time horizon) const {
  // Clamp below as well: a negative request (or n_ == 0, where n_ - 1 is
  // -1) must sample the failure-free pattern, not run a negative-length
  // Fisher-Yates prefix.
  faults = std::max(0, std::min({faults, t_, n_ - 1}));
  SplitMix64 rng{seed * kGoldenGamma + 1};
  std::vector<int> ids(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) ids[static_cast<std::size_t>(i)] = i;
  // Deterministic Fisher-Yates prefix to pick the faulty set.
  for (int i = 0; i < faults; ++i) {
    const auto j = i + static_cast<int>(rng.below(static_cast<std::uint64_t>(n_ - i)));
    std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
  }
  FailurePattern f(n_);
  for (int i = 0; i < faults; ++i) {
    const Time when =
        horizon > 0 ? static_cast<Time>(rng.below(static_cast<std::uint64_t>(horizon))) : 0;
    f.crash(ids[static_cast<std::size_t>(i)], when);
  }
  return f;
}

}  // namespace efd
