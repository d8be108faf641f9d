// The one deterministic-subset comparison of two exploration outcomes.
//
// Two sweeps of the same tree must agree on these fields whatever explored
// it: the explorer at any thread count or with any store shape that stays
// under its memory cap, or the full-replay oracle
// (support/explore_oracle.hpp). Run-shape fields (undo depth,
// respawns, ghost hits, steals, timing, per-tier store traffic) are not
// compared.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/solvability.hpp"

namespace efd {

/// The deterministic ExploreStats subset (core/telemetry.hpp); also holds
/// for the merged stats of two level scans (CleanLevelResult::stats).
inline void expect_stats_subset_eq(const ExploreStats& a, const ExploreStats& b,
                                   const std::string& what) {
  EXPECT_EQ(a.states, b.states) << what;
  EXPECT_EQ(a.terminal_runs, b.terminal_runs) << what;
  EXPECT_EQ(a.blocked_runs, b.blocked_runs) << what;
  EXPECT_EQ(a.dedup_queries, b.dedup_queries) << what;
  EXPECT_EQ(a.dedup_misses, b.dedup_misses) << what;
  EXPECT_EQ(a.dedup_hits, b.dedup_hits) << what;
}

inline void expect_outcome_eq(const ExploreOutcome& a, const ExploreOutcome& b,
                              const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
  EXPECT_EQ(a.bad_schedule, b.bad_schedule) << what;
  EXPECT_EQ(a.states, b.states) << what;
  EXPECT_EQ(a.terminal_runs, b.terminal_runs) << what;
  EXPECT_EQ(a.blocked_runs, b.blocked_runs) << what;
  expect_stats_subset_eq(a.stats, b.stats, what);
}

}  // namespace efd
