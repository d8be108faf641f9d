#include "core/bivalence.hpp"

#include <unordered_map>

#include "core/sigset.hpp"
#include "sim/hash.hpp"
#include "sim/memory.hpp"

namespace efd {
namespace {

/// Cycle repetitions a found lasso is re-validated over.
constexpr int kValidateIterations = 8;

/// One configuration of the simulated restricted system.
struct Config {
  std::vector<Value> state;      ///< per-participant automaton state
  std::vector<bool> decided;
  std::vector<bool> halted;
  std::map<RegId, Value> mem;

  [[nodiscard]] std::uint64_t sig() const {
    return lasso_config_sig(state, decided, halted, mem);
  }
};

class LassoSearcher {
 public:
  LassoSearcher(const SimProgramPtr& prog, const ValueVec& inputs, const LassoConfig& cfg)
      : prog_(prog), cfg_(cfg) {
    const int n = static_cast<int>(cfg.participants.size());
    init_.state.resize(static_cast<std::size_t>(n));
    init_.decided.assign(static_cast<std::size_t>(n), false);
    init_.halted.assign(static_cast<std::size_t>(n), false);
    for (int a = 0; a < n; ++a) {
      const int idx = cfg.participants[static_cast<std::size_t>(a)];
      init_.state[static_cast<std::size_t>(a)] =
          prog->init(idx, inputs.at(static_cast<std::size_t>(idx)));
    }
  }

  LassoResult run() {
    std::vector<int> sched;
    Config c = init_;
    dfs(c, sched);
    return out_;
  }

 private:
  /// Performs one step of participant slot `a`; returns false if it cannot
  /// step (halted).
  bool step(Config& c, int a) const {
    if (c.halted[static_cast<std::size_t>(a)]) return false;
    Value& st = c.state[static_cast<std::size_t>(a)];
    const SimAction act = prog_->action(st);
    Value result;
    switch (act.kind) {
      case SimAction::Kind::kRead: {
        const auto it = c.mem.find(act.addr.id());
        if (it != c.mem.end()) result = it->second;
        break;
      }
      case SimAction::Kind::kWrite:
        c.mem[act.addr.id()] = act.value;
        break;
      case SimAction::Kind::kYield:
        break;
      case SimAction::Kind::kDecide:
        c.decided[static_cast<std::size_t>(a)] = true;
        break;
      case SimAction::Kind::kQuery:
        throw std::logic_error("find_nontermination: restricted algorithms cannot query");
      case SimAction::Kind::kHalt:
        c.halted[static_cast<std::size_t>(a)] = true;
        return false;
    }
    st = prog_->transition(st, result);
    return true;
  }

  [[nodiscard]] std::vector<int> eligible(const Config& c) const {
    std::vector<int> out;
    for (std::size_t a = 0; a < c.state.size(); ++a) {
      if (!c.decided[a] && !c.halted[a]) out.push_back(static_cast<int>(a));
    }
    return out;
  }

  /// Replays prefix + several cycle repetitions from scratch: the lasso is
  /// genuine if no new decision happens during the repetitions.
  [[nodiscard]] bool validate(const std::vector<int>& prefix,
                              const std::vector<int>& cycle) const {
    Config c = init_;
    for (int a : prefix) step(c, a);
    const auto decided_before = c.decided;
    for (int rep = 0; rep < kValidateIterations; ++rep) {
      for (int a : cycle) {
        step(c, a);
        if (!decided_before[static_cast<std::size_t>(a)] &&
            c.decided[static_cast<std::size_t>(a)]) {
          return false;
        }
      }
    }
    return true;
  }

  void dfs(const Config& c, std::vector<int>& sched) {
    if (out_.found || out_.budget_exhausted) return;
    if (++out_.states > cfg_.max_states) {
      out_.budget_exhausted = true;
      return;
    }
    const auto elig = eligible(c);
    if (elig.empty()) return;  // everyone decided/halted: branch terminates

    const std::uint64_t sig = c.sig();
    if (const auto it = on_stack_.find(sig); it != on_stack_.end()) {
      std::vector<int> prefix(sched.begin(), sched.begin() + it->second);
      std::vector<int> cycle(sched.begin() + it->second, sched.end());
      if (!cycle.empty() && validate(prefix, cycle)) {
        out_.found = true;
        out_.prefix = std::move(prefix);
        out_.cycle = std::move(cycle);
      }
      return;
    }
    if (static_cast<int>(sched.size()) >= cfg_.max_depth) return;
    if (!visited_.insert(sig)) return;

    on_stack_[sig] = static_cast<long>(sched.size());
    for (int a : elig) {
      Config next = c;
      step(next, a);
      sched.push_back(a);
      dfs(next, sched);
      sched.pop_back();
      if (out_.found || out_.budget_exhausted) break;
    }
    on_stack_.erase(sig);
  }

  SimProgramPtr prog_;
  LassoConfig cfg_;
  Config init_;
  LassoResult out_;
  std::unordered_map<std::uint64_t, long> on_stack_;
  FlatSigSet visited_;
};

}  // namespace

LassoResult find_nontermination(const SimProgramPtr& prog, const ValueVec& inputs,
                                const LassoConfig& cfg) {
  return LassoSearcher(prog, inputs, cfg).run();
}

std::uint64_t lasso_config_sig(const std::vector<Value>& state, const std::vector<bool>& decided,
                               const std::vector<bool>& halted,
                               const std::map<RegId, Value>& mem) {
  std::uint64_t h = kFnv1aTruncatedBasis;
  for (const auto& s : state) h = h * kFnv1aPrime + s.hash();
  for (bool d : decided) h = h * kFnv1aPrime + (d ? 2u : 1u);
  for (bool d : halted) h = h * kFnv1aPrime + (d ? 5u : 3u);
  // Memory cells fold COMMUTATIVELY (a sum of per-cell hashes keyed by the
  // canonical register name, as in RegisterFile::content_hash): map order is
  // RegId order, i.e. process-global interning order, and a position-
  // dependent chain over it would change signatures whenever unrelated code
  // interned registers first — breaking dedup/cycle-detection determinism.
  std::uint64_t acc = 0;
  for (const auto& [k, v] : mem) {
    acc += cell_content_hash(reg_name_hash(k), v.hash());
  }
  return h * kFnv1aPrime + cell_content_hash(0x9AE16A3B2F90404FULL, acc);
}

}  // namespace efd
