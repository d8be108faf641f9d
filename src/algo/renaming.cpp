#include "algo/renaming.hpp"

#include <algorithm>
#include <vector>

#include "sim/memory.hpp"

namespace efd {
namespace {

Proc renaming_kconc(Context& ctx, int n, Sym r_base, Value input) {
  const int i = ctx.pid().index;
  const RegAddr mine = reg(r_base, i);
  std::int64_t s = 1;  // current name suggestion

  for (;;) {
    co_await ctx.write(mine, vec(Value(i), Value(s), Value(1), input));
    const Value view = co_await collect(ctx, r_base, n);

    bool conflict = false;
    std::vector<int> contenders;                 // {ℓ | R_ℓ = (ℓ, s_ℓ, true)}
    std::vector<std::int64_t> foreign_names;     // {s_ℓ | R_ℓ ≠ ⊥, ℓ ≠ i}
    for (int l = 0; l < n; ++l) {
      const Value r = view.at(static_cast<std::size_t>(l));
      if (r.is_nil()) continue;
      const std::int64_t sl = r.at(1).int_or(0);
      const bool busy = r.at(2).int_or(0) == 1;
      if (busy) contenders.push_back(l);
      if (l != i) {
        foreign_names.push_back(sl);
        if (sl == s) conflict = true;
      }
    }

    if (!conflict) {
      co_await ctx.write(mine, vec(Value(i), Value(s), Value(0), input));
      co_await ctx.decide(Value(s));
      co_return;
    }

    // Rank of i among the contenders (1-based; i is always among them since
    // it just published with the bit set).
    std::sort(contenders.begin(), contenders.end());
    const auto pos = std::lower_bound(contenders.begin(), contenders.end(), i);
    const std::int64_t rank = (pos - contenders.begin()) + 1;

    // s := the rank-th positive integer not suggested by anyone else.
    std::sort(foreign_names.begin(), foreign_names.end());
    foreign_names.erase(std::unique(foreign_names.begin(), foreign_names.end()),
                        foreign_names.end());
    std::int64_t cand = 0;
    std::int64_t skipped = 0;
    while (skipped < rank) {
      ++cand;
      if (!std::binary_search(foreign_names.begin(), foreign_names.end(), cand)) ++skipped;
    }
    s = cand;
  }
}

}  // namespace

ProcBody make_renaming_kconc(RenamingConfig cfg, Value input) {
  // The register base is interned once per binding: the explorer binds the
  // body once and respawns it on every backtrack.
  return [n = cfg.n, r_base = sym(cfg.ns + "/R"), input = std::move(input)](Context& ctx) {
    return renaming_kconc(ctx, n, r_base, input);
  };
}

}  // namespace efd
