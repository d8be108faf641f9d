// The task hierarchy (Thm. 10): every task sits in class k = its maximal
// tolerated concurrency, and its weakest failure detector is ¬Ωk.
//
// The classifier measures, by exhaustive exploration (core/solvability.hpp),
// the maximal level at which this library's solver for each menu task stays
// clean, finds the violating run one level higher, and names the weakest-FD
// class Thm. 10 assigns. For tasks whose exact level is open (footnote 4 of
// the paper: some (j, j+k-1)-renaming parameters) the row says so: the
// observed level is a lower bound witnessed by a solver, the violation one
// level up refutes THAT solver only.
#pragma once

#include <string>
#include <vector>

#include "core/solvability.hpp"

namespace efd {

struct HierarchyRow {
  std::string task;
  int observed_level = 0;      ///< max FULLY-certified clean level of the solver
  bool level_exhausted = false;  ///< the sweep above observed_level ran out of
                                 ///< budget: the level is a lower bound only
  bool mem_exhausted = false;    ///< that budget was the dedup memory cap
                                 ///< (DedupConfig::mem_budget_bytes), not max_states
  bool violation_above = false;  ///< a concrete violating run exists at level+1
  std::string violation;       ///< what went wrong at level+1
  std::string weakest_fd;      ///< Thm. 10 class for the observed level
  std::string note;
  std::int64_t states_explored = 0;
  ExploreStats stats;          ///< merged telemetry of every level sweep tried
};

/// Name of the ¬Ωk class as the paper writes it.
[[nodiscard]] std::string fd_class_name(int level, int n);

/// Classifies one (task, solver) pair up to level `k_max`.
HierarchyRow classify(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                      const ValueVec& inputs, int k_max, const ExploreConfig& base_cfg = {});

/// The standard menu of the E9 table: identity, consensus, k-set agreement,
/// strong renaming, (j, j+k-1)-renaming, weak symmetry breaking — all at
/// system size n (kept small: exploration is exhaustive). With `threads` > 1
/// up to `threads` rows are classified at once, each on the one-thread
/// engine, so every row is byte-identical to the 1-thread menu's. Every
/// sweep builds its own dedup store of shape `store`; its memory cap binds
/// each sweep on its own, so up to `threads` capped stores can be live at
/// once.
std::vector<HierarchyRow> classify_standard_menu(int n, std::int64_t max_states = 60000,
                                                 int threads = 1,
                                                 const DedupConfig& store = {});

/// Renders the table (one row per line, aligned) for benches and examples.
std::string format_hierarchy(const std::vector<HierarchyRow>& rows);

}  // namespace efd
