#include "fd/reduction.hpp"

#include <algorithm>
#include <memory>

#include "sim/memory.hpp"

namespace efd {

ReductionRun run_reduction(const FailurePattern& pattern, const DetectorPtr& detector,
                           std::uint64_t seed, const std::vector<ProcBody>& s_bodies,
                           std::int64_t steps) {
  ReductionRun out;
  out.pattern = pattern;
  World w(pattern, detector->history(pattern, seed));
  for (std::size_t i = 0; i < s_bodies.size(); ++i) {
    w.spawn_s(static_cast<int>(i), s_bodies[i]);
  }
  w.enable_trace();
  RoundRobinScheduler rr;
  out.stop = drive(w, rr, steps);
  out.trace = w.trace();
  out.horizon = w.now();
  out.stats = w.run_stats();
  return out;
}

HistoryPtr history_from_out_registers(const Trace& trace, const std::string& out_base, int n,
                                      Value initial) {
  auto pubs = std::make_shared<std::vector<std::vector<std::pair<Time, Value>>>>(
      static_cast<std::size_t>(n));
  const Sym out_sym = sym(out_base);
  for (const auto& s : trace) {
    if (s.op != OpKind::kWrite || !s.pid.is_s()) continue;
    if (s.pid.index >= 0 && s.pid.index < n && s.addr == reg(out_sym, s.pid.index)) {
      (*pubs)[static_cast<std::size_t>(s.pid.index)].emplace_back(s.time, s.value);
    }
  }
  return std::make_shared<FnHistory>(
      [pubs, initial = std::move(initial)](int qi, Time t) {
        const auto& seq = (*pubs)[static_cast<std::size_t>(qi)];
        Value cur = initial;
        for (const auto& [when, v] : seq) {
          if (when > t) break;
          cur = v;
        }
        return cur;
      });
}

namespace {

// NOTE: every ProcBody below is a lambda that CALLS a standalone coroutine
// with by-value parameters. A lambda must never itself be the coroutine: its
// captures live in the lambda object, which dies after World::spawn, leaving
// the suspended frame with dangling references.

Proc vec_to_anti_converter(Context& ctx, std::string out_base, int n, int k) {
  const int me = ctx.pid().index;
  const RegAddr my_out = reg(sym(out_base), me);
  for (;;) {
    const Value sample = co_await ctx.query();  // k-vector of S-ids
    co_await ctx.write(my_out, vec_omega_complement(sample, n, k));
  }
}

Proc omega_to_vec_converter(Context& ctx, std::string out_base, int n, int k) {
  const int me = ctx.pid().index;
  const RegAddr my_out = reg(sym(out_base), me);
  std::int64_t tick = 0;
  for (;;) {
    const Value leader = co_await ctx.query();  // Ω: one S-id
    ValueVec out;
    out.push_back(leader);
    for (int j = 1; j < k; ++j) {
      out.emplace_back(static_cast<std::int64_t>((tick + j + me) % n));
    }
    ++tick;
    co_await ctx.write(my_out, Value(std::move(out)));
  }
}

}  // namespace

ProcBody make_vec_to_anti_converter(std::string out_base, int n, int k) {
  return [out_base = std::move(out_base), n, k](Context& ctx) {
    return vec_to_anti_converter(ctx, out_base, n, k);
  };
}

ProcBody make_omega_to_vec_converter(std::string out_base, int n, int k) {
  return [out_base = std::move(out_base), n, k](Context& ctx) {
    return omega_to_vec_converter(ctx, out_base, n, k);
  };
}

}  // namespace efd
