#include "core/hierarchy.hpp"

#include <sstream>

#include "algo/one_concurrent.hpp"
#include "algo/participating_set.hpp"
#include "algo/renaming.hpp"
#include "core/workpool.hpp"
#include "sim/memory.hpp"
#include "tasks/participating_set.hpp"
#include "tasks/consensus.hpp"
#include "tasks/identity.hpp"
#include "tasks/renaming.hpp"
#include "tasks/set_agreement.hpp"
#include "tasks/symmetry_breaking.hpp"

namespace efd {
namespace {

// The wait-free identity algorithm: publish the input, decide it.
Proc identity_solver(Context& ctx, Value input) {
  co_await ctx.write(reg("id/In", ctx.pid().index), input);
  co_await ctx.decide(input);
}

}  // namespace

std::string fd_class_name(int level, int n) {
  if (level >= n) return "trivial (wait-free)";
  if (level == 1) return "Omega (= antiOmega-1)";
  return "antiOmega-" + std::to_string(level);
}

HierarchyRow classify(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                      const ValueVec& inputs, int k_max, const ExploreConfig& base_cfg) {
  const CleanLevelResult r = max_clean_level(task, body, inputs, k_max, base_cfg);
  HierarchyRow row;
  row.task = task->name();
  row.observed_level = r.level;
  row.states_explored = r.states;
  row.stats = r.stats;
  row.violation = r.violation;
  row.violation_above = !r.violation.empty() && r.level > 0;
  if (r.budget_exhausted) {
    // The sweep did NOT cover level r.level + 1, so a clean partial sweep
    // certifies nothing: the row is a lower bound. The note distinguishes
    // the state budget from the dedup memory cap: the former is lifted with
    // max_states, the latter with the store's mem_budget_bytes or by
    // enabling its disk tier (ExploreConfig::dedup_store).
    row.level_exhausted = true;
    row.mem_exhausted = r.mem_exhausted;
    const std::string at = std::to_string(r.level + 1);
    row.note = r.mem_exhausted ? "dedup memory cap hit at level " + at +
                                     "; observed level is a certified lower bound" +
                                     " (enable the disk tier to certify)"
                               : "budget hit at level " + at +
                                     "; observed level is a certified lower bound";
  }
  row.weakest_fd = fd_class_name(row.observed_level, task->n_procs());
  return row;
}

std::vector<HierarchyRow> classify_standard_menu(int n, std::int64_t max_states, int threads,
                                                 const DedupConfig& store) {
  // One closure per row. Rows share no task, body, register namespace or
  // dedup store, so they run as one pool batch, each on the one-thread
  // engine (cfg.threads stays 1) and each into its own slot: every row is
  // byte-identical to the 1-thread menu, and no sweep is explored twice
  // (the parallel frontier re-runs every violating or exhausted sweep, and
  // every row below level n ends in one).
  ExploreConfig cfg;
  cfg.max_states = max_states;
  cfg.dedup_store = store;
  std::vector<std::function<HierarchyRow()>> menu;

  auto one_conc_body = [](const TaskPtr& task, const std::string& ns) {
    return [task, ns](int, Value input) { return make_one_concurrent(task, input, ns); };
  };

  // identity: wait-free, class n. Solved by the direct 2-step algorithm
  // (publish, decide own input) so level-n exploration stays exhaustive.
  menu.emplace_back([n, cfg] {
    auto task = std::make_shared<IdentityTask>(n);
    auto body = [](int, Value input) {
      return ProcBody([input](Context& ctx) { return identity_solver(ctx, input); });
    };
    auto row = classify(task, body, task->sample_input(1), n, cfg);
    row.note = "wait-free: needs no advice (Prop. 2)";
    return row;
  });
  // consensus: class 1 (Ω).
  menu.emplace_back([n, cfg, one_conc_body] {
    auto task = std::make_shared<ConsensusTask>(n);
    ValueVec in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);  // all-distinct: hardest
    return classify(task, one_conc_body(task, "cons"), in, n, cfg);
  });
  for (int k = 2; k < n; ++k) {  // k-set agreement: class k.
    menu.emplace_back([n, k, cfg, one_conc_body] {
      auto task = std::make_shared<SetAgreementTask>(n, k);
      ValueVec in(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
      return classify(task, one_conc_body(task, "ksa" + std::to_string(k)), in, n, cfg);
    });
  }
  if (n >= 3) {  // strong 2-renaming: class 1 (Cor. 13).
    menu.emplace_back([n, cfg] {
      auto task = std::make_shared<RenamingTask>(RenamingTask::strong(n, 2));
      const ValueVec in = task->sample_input(0);
      RenamingConfig rcfg{"sren", n};
      auto row = classify(
          task, [rcfg](int, Value input) { return make_renaming_kconc(rcfg, input); }, in, n,
          cfg);
      row.note = "strong renaming == consensus (Cor. 13)";
      return row;
    });
  }
  if (n >= 4) {  // (3, 4)-renaming with the Fig. 4 algorithm: level >= 2.
    menu.emplace_back([n, cfg] {
      auto task = std::make_shared<RenamingTask>(n, 3, 4);
      const ValueVec in = task->sample_input(0);
      RenamingConfig rcfg{"ren34", n};
      auto row = classify(
          task, [rcfg](int, Value input) { return make_renaming_kconc(rcfg, input); }, in, n,
          cfg);
      row.note = "exact maximal level open for some (j,k) (paper fn. 4)";
      return row;
    });
  }
  // participating set: wait-free via immediate snapshot (class n).
  menu.emplace_back([n, cfg] {
    auto task = std::make_shared<ParticipatingSetTask>(n);
    const ParticipatingSetConfig pcfg{"ps", n};
    auto body = [pcfg](int, Value input) { return make_participating_set_solver(pcfg, input); };
    ExploreConfig ps_cfg = cfg;
    ps_cfg.max_depth = 600;  // immediate snapshot takes O(n^2) steps per process
    auto row = classify(task, body, task->sample_input(2), n, ps_cfg);
    // Preserve a budget note: the solver is wait-free, but certifying high
    // levels exhaustively can exceed the exploration budget.
    const std::string tag = "wait-free via one-shot immediate snapshot";
    row.note = row.note.empty() ? tag : row.note + "; " + tag;
    return row;
  });
  // weak symmetry breaking with the generic solver.
  menu.emplace_back([n, cfg, one_conc_body] {
    auto task = std::make_shared<WeakSymmetryBreakingTask>(n);
    auto row = classify(task, one_conc_body(task, "wsb"), task->sample_input(3), n, cfg);
    row.note = "level of the generic solver; the task's own class is open here";
    return row;
  });

  std::vector<HierarchyRow> rows(menu.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    jobs.emplace_back([&rows, &menu, i] { rows[i] = menu[i](); });
  }
  WorkStealingPool::run(std::move(jobs), threads);
  return rows;
}

std::string format_hierarchy(const std::vector<HierarchyRow>& rows) {
  std::ostringstream os;
  os << "task                                 | level | weakest FD            | violation at level+1\n";
  os << "-------------------------------------+-------+-----------------------+---------------------\n";
  for (const auto& r : rows) {
    std::string name = r.task;
    name.resize(36, ' ');
    std::string fd = r.weakest_fd;
    fd.resize(21, ' ');
    os << name << " |   " << r.observed_level << (r.level_exhausted ? "+ " : "  ") << " | " << fd
       << " | "
       << (r.violation.empty() ? std::string("-") : r.violation);
    if (!r.note.empty()) os << "  [" << r.note << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace efd
