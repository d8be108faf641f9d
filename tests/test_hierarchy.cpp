// Tests for the Thm. 10 hierarchy classifier (core/hierarchy.hpp).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/hierarchy.hpp"
#include "support/outcome_eq.hpp"

namespace efd {
namespace {

/// The n=4 menu at 2.5M states and 4 threads, classified once and shared by
/// the theory check and the row-identity check.
const std::vector<HierarchyRow>& menu4_at_4_threads() {
  static const std::vector<HierarchyRow> rows = classify_standard_menu(4, 2500000, 4);
  return rows;
}

/// The first row whose task name contains `needle`, or null.
const HierarchyRow* find_row(const std::vector<HierarchyRow>& rows, const std::string& needle) {
  for (const auto& r : rows) {
    if (r.task.find(needle) != std::string::npos) return &r;
  }
  return nullptr;
}

/// Two menus agree row for row: the rendered table, the row order, each
/// row's state count and memory-cap flag, and its merged sweep stats.
void expect_menus_eq(const std::vector<HierarchyRow>& a, const std::vector<HierarchyRow>& b,
                     const std::string& what) {
  EXPECT_EQ(format_hierarchy(a), format_hierarchy(b)) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string row = what + ", row " + std::to_string(i) + " " + a[i].task;
    EXPECT_EQ(a[i].task, b[i].task) << row;
    EXPECT_EQ(a[i].states_explored, b[i].states_explored) << row;
    EXPECT_EQ(a[i].mem_exhausted, b[i].mem_exhausted) << row;
    expect_stats_subset_eq(a[i].stats, b[i].stats, row);
  }
}

TEST(Hierarchy, FdClassNames) {
  EXPECT_EQ(fd_class_name(1, 4), "Omega (= antiOmega-1)");
  EXPECT_EQ(fd_class_name(2, 4), "antiOmega-2");
  EXPECT_EQ(fd_class_name(4, 4), "trivial (wait-free)");
  EXPECT_EQ(fd_class_name(5, 4), "trivial (wait-free)");
}

TEST(Hierarchy, StandardMenuMatchesTheory) {
  // The (Pi,3)-set-agreement level-3 sweep covers ~2.3M states; the budget
  // must clear that because exhausted sweeps no longer certify a level
  // (they used to, which let a 250k budget "observe" level 3 by sampling).
  // 4 threads classify up to 4 rows at once; the rows are thread-count
  // invariant (MenuRowsMatchOneThread).
  const auto& rows = menu4_at_4_threads();
  ASSERT_GE(rows.size(), 5u);

  auto find = [&rows](const std::string& needle) { return find_row(rows, needle); };

  const auto* identity = find("identity");
  ASSERT_NE(identity, nullptr);
  EXPECT_EQ(identity->observed_level, 4) << "identity is wait-free";

  const auto* consensus = find("consensus");
  ASSERT_NE(consensus, nullptr);
  EXPECT_EQ(consensus->observed_level, 1) << "consensus is class 1 (Omega)";
  EXPECT_EQ(consensus->weakest_fd, "Omega (= antiOmega-1)");

  const auto* ksa2 = find("(Pi,2)-set-agreement");
  ASSERT_NE(ksa2, nullptr);
  EXPECT_EQ(ksa2->observed_level, 2) << "2-set agreement is class 2";
  EXPECT_EQ(ksa2->weakest_fd, "antiOmega-2");

  const auto* ksa3 = find("(Pi,3)-set-agreement");
  ASSERT_NE(ksa3, nullptr);
  EXPECT_EQ(ksa3->observed_level, 3);

  const auto* strong = find("(2,2)-renaming");
  ASSERT_NE(strong, nullptr);
  EXPECT_EQ(strong->observed_level, 1) << "strong renaming is class 1 (Cor. 13)";

  const auto* ren34 = find("(3,4)-renaming");
  ASSERT_NE(ren34, nullptr);
  EXPECT_GE(ren34->observed_level, 2) << "Thm. 15: (3,4)-renaming is 2-concurrently solvable";
}

TEST(Hierarchy, FormatProducesOneRowPerTask) {
  const auto rows = classify_standard_menu(3, 60000);
  const std::string table = format_hierarchy(rows);
  std::size_t lines = 0;
  for (char c : table) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, rows.size() + 2);  // header + separator + rows
  EXPECT_NE(table.find("consensus"), std::string::npos);
}

TEST(Hierarchy, ViolationReportedAboveLevel) {
  const auto rows = classify_standard_menu(3, 60000);
  for (const auto& r : rows) {
    // Rows capped by the exploration budget carry a note instead of a
    // violation; every other below-n row must exhibit its violating run.
    if (r.observed_level < 3 && r.note.empty()) {
      EXPECT_FALSE(r.violation.empty())
          << r.task << " stopped below n without a recorded violation";
    }
  }
}

TEST(Hierarchy, SmallMenuRowsMatchOneThread) {
  // 8 threads is more workers than the menu has rows.
  const auto one = classify_standard_menu(3, 60000, 1);
  for (const int threads : {2, 4, 8}) {
    expect_menus_eq(one, classify_standard_menu(3, 60000, threads),
                    "n=3 menu at " + std::to_string(threads) + " threads");
  }
}

TEST(Hierarchy, MenuRowsMatchOneThread) {
  expect_menus_eq(classify_standard_menu(4, 2500000, 1), menu4_at_4_threads(),
                  "n=4 menu at 4 threads");
}

TEST(Hierarchy, MemoryCappedMenuRowsMatchOneThread) {
  // A 1 MiB cap binds every sweep's store on its own, with no disk tier to
  // spill to: the rows whose last sweep outgrows it become lower bounds,
  // identically at 1 and 4 threads.
  DedupConfig capped;
  capped.mem_budget_bytes = std::size_t{1} << 20;
  const auto one = classify_standard_menu(4, 2500000, 1, capped);
  expect_menus_eq(one, classify_standard_menu(4, 2500000, 4, capped),
                  "capped n=4 menu at 4 threads");
  for (const auto& [needle, level] : {std::pair<std::string, int>{"(Pi,3)-set-agreement", 2},
                                      std::pair<std::string, int>{"participating-set", 1}}) {
    const HierarchyRow* r = find_row(one, needle);
    ASSERT_NE(r, nullptr) << needle;
    EXPECT_EQ(r->observed_level, level) << needle;
    EXPECT_TRUE(r->level_exhausted) << needle;
    EXPECT_TRUE(r->mem_exhausted) << needle;
    EXPECT_NE(r->note.find("dedup memory cap hit"), std::string::npos) << r->note;
  }
}

}  // namespace
}  // namespace efd
