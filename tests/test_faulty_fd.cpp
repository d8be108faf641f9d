// Tests for the faulty-advice wrappers (fd/faulty.hpp): every wrapper's
// history must equal the inner detector's history exactly from its
// stabilization time on (the "finite prefix of arbitrary lies" contract),
// and stay type-correct before it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fd/detectors.hpp"
#include "fd/faulty.hpp"

namespace efd {
namespace {

FailurePattern crashy_pattern() {
  FailurePattern f(4);
  f.crash(2, 17);
  return f;
}

std::vector<DetectorPtr> inner_detectors() {
  return {
      std::make_shared<OmegaFd>(10),
      std::make_shared<AntiOmegaK>(2, 12),
      std::make_shared<VectorOmegaK>(2, 12),
      std::make_shared<TrivialFd>(),
  };
}

std::vector<FdFaultKind> fault_kinds() {
  return {FdFaultKind::kLying, FdFaultKind::kOmissive, FdFaultKind::kStuttering};
}

TEST(FaultyFd, HistoryEqualsInnerAfterStabilization) {
  const FailurePattern f = crashy_pattern();
  for (const auto& inner : inner_detectors()) {
    for (const FdFaultKind kind : fault_kinds()) {
      for (const Time until : {Time{0}, Time{9}, Time{64}}) {
        const DetectorPtr faulty = make_faulty(kind, inner, until, 5);
        const Time stable = faulty->stabilization_time(f);
        EXPECT_GE(stable, until);
        EXPECT_GE(stable, inner->stabilization_time(f));
        for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
          const HistoryPtr hf = faulty->history(f, seed);
          const HistoryPtr hi = inner->history(f, seed);
          for (int qi = 0; qi < f.n(); ++qi) {
            for (Time t = stable; t < stable + 40; ++t) {
              ASSERT_EQ(hf->at(qi, t), hi->at(qi, t))
                  << faulty->name() << " diverges from " << inner->name() << " at (q"
                  << qi + 1 << ", " << t << "), stabilization " << stable;
            }
          }
        }
      }
    }
  }
}

TEST(FaultyFd, LyingKeepsPerSampleTypeInvariants) {
  const FailurePattern f = crashy_pattern();
  const auto inner = std::make_shared<VectorOmegaK>(2, 12);
  const LyingFd liar(inner, 50);
  const HistoryPtr h = liar.history(f, 3);
  for (int qi = 0; qi < f.n(); ++qi) {
    for (Time t = 0; t < 50; ++t) {
      const Value v = h->at(qi, t);
      ASSERT_TRUE(v.is_vec());
      ASSERT_EQ(static_cast<int>(v.size()), 2);
    }
  }
}

TEST(FaultyFd, LyingActuallyLies) {
  // With a large window and a crashy pattern the liar must differ from the
  // inner history somewhere before stabilization (else it is no fault at all).
  const FailurePattern f = crashy_pattern();
  const auto inner = std::make_shared<OmegaFd>(10);
  const LyingFd liar(inner, 200);
  const HistoryPtr hf = liar.history(f, 5);
  const HistoryPtr hi = inner->history(f, 5);
  bool differs = false;
  for (int qi = 0; qi < f.n() && !differs; ++qi) {
    for (Time t = 0; t < 200 && !differs; ++t) differs = hf->at(qi, t) != hi->at(qi, t);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultyFd, OmissiveServesOnlyPastInnerValues) {
  const FailurePattern f = crashy_pattern();
  const auto inner = std::make_shared<OmegaFd>(10);
  const OmissiveFd om(inner, 120, 8);
  const HistoryPtr hf = om.history(f, 11);
  const HistoryPtr hi = inner->history(f, 11);
  for (int qi = 0; qi < f.n(); ++qi) {
    for (Time t = 0; t < 120; ++t) {
      const Value v = hf->at(qi, t);
      bool seen = false;
      for (Time u = 0; u <= t && !seen; ++u) seen = hi->at(qi, u) == v;
      ASSERT_TRUE(seen) << "omissive output at t=" << t << " is not a past inner value";
    }
  }
}

TEST(FaultyFd, StutteringFreezesOnPeriodBoundaries) {
  const FailurePattern f = crashy_pattern();
  const auto inner = std::make_shared<OmegaFd>(10);
  const StutteringFd st(inner, 100, 8);
  const HistoryPtr hf = st.history(f, 21);
  const HistoryPtr hi = inner->history(f, 21);
  for (int qi = 0; qi < f.n(); ++qi) {
    for (Time t = 0; t < 100; ++t) {
      ASSERT_EQ(hf->at(qi, t), hi->at(qi, (t / 8) * 8));
    }
  }
}

TEST(FaultyFd, MakeFaultyNoneIsIdentity) {
  const DetectorPtr inner = std::make_shared<OmegaFd>(10);
  EXPECT_EQ(make_faulty(FdFaultKind::kNone, inner, 50), inner);
}

TEST(FaultyFd, KindNamesRoundTrip) {
  for (const FdFaultKind k : {FdFaultKind::kNone, FdFaultKind::kLying, FdFaultKind::kOmissive,
                              FdFaultKind::kStuttering}) {
    EXPECT_EQ(fd_fault_kind_from(to_string(k)), k);
  }
  EXPECT_THROW((void)fd_fault_kind_from("grumpy"), std::invalid_argument);
}

}  // namespace
}  // namespace efd
