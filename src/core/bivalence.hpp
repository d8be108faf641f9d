// FLP-style non-termination witness search (supporting Lemma 11 / Thm. 12).
//
// The paper's impossibility results (wait-free 2-consensus, 2-concurrent
// strong renaming) assert that every candidate restricted algorithm has an
// infinite non-deciding run. For a CONCRETE candidate with finitely many
// reachable configurations, such a run shows up as a reachable cycle in the
// configuration graph whose steps belong to undecided processes — a "lasso".
//
// The searcher operates on SimPrograms (explicit automaton states), so a
// configuration is exactly (local states, memory, decisions) and cycle
// detection is sound: a repeated configuration really is a loop the
// adversarial scheduler can iterate forever. (Coroutine-based algorithms
// can be searched through ReplayProgram only if their step-result history
// is periodic, which it never is — hand the searcher a genuine finite-state
// automaton. SimActions have no message ops, so only register algorithms
// can be searched.) Every reported lasso is re-validated by
// replaying prefix + several cycle iterations and checking that no
// decision occurs. The search is one DFS with one visited set, one on-stack
// map and one max_states budget.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algo/sim_program.hpp"
#include "sim/regid.hpp"
#include "sim/value.hpp"

namespace efd {

struct LassoConfig {
  std::vector<int> participants;    ///< process indices (full concurrency)
  int max_depth = 400;
  std::int64_t max_states = 200000;
};

struct LassoResult {
  bool found = false;               ///< a validated non-terminating lasso exists
  bool budget_exhausted = false;
  std::vector<int> prefix;          ///< schedule (participant ids) reaching the cycle
  std::vector<int> cycle;           ///< the repeating choice sequence
  std::int64_t states = 0;
};

/// Searches for an infinite non-deciding schedule of the restricted
/// algorithm `prog` (every participant runs it, seeded with inputs[i]).
LassoResult find_nontermination(const SimProgramPtr& prog, const ValueVec& inputs,
                                const LassoConfig& cfg);

/// Signature of one searcher configuration. Exposed for tests, which pin the
/// property that the memory fold is COMMUTATIVE in the register cells: RegId
/// order is process-global interning order, so folding cells in map order
/// with a position-dependent chain would make signatures (and therefore
/// dedup/cycle detection) depend on which registers other code interned
/// first. Cells are folded by canonical-name hash, order-independently,
/// exactly like RegisterFile::content_hash.
std::uint64_t lasso_config_sig(const std::vector<Value>& state, const std::vector<bool>& decided,
                               const std::vector<bool>& halted,
                               const std::map<RegId, Value>& mem);

}  // namespace efd
