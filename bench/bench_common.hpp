// Shared helpers for the experiment benches (E1..E20, see EXPERIMENTS.md).
//
// Every bench binary regenerates one experiment's tables on stdout (printed
// once, before the google-benchmark timing output), exposes the same
// quantities as benchmark counters, and — via the telemetry::BenchEmitter
// behind these helpers — writes the deterministic part of the run (tables,
// counters that are not rates, git describe) to BENCH_E<n>.json at exit.
// tools/bench_diff.py validates the JSON files and diffs them against the
// committed baselines in bench/baseline/. Rates (anything divided by wall
// time) stay on stdout: perfbench/ is the repo's one timed benchmark.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "efd/efd.hpp"

namespace efd::bench {

// ---- heap-allocation telemetry (EFD_BENCH_ALLOC_PROBE) ----
//
// Benches that instantiate EFD_BENCH_ALLOC_PROBE() at file scope replace the
// global operator new/delete with counting forwarders, so a timing loop can
// report its true heap traffic (`allocs_per_step`). The arena-pooled hot
// path (sim/arena.hpp) must show ~0 allocations per explored state in
// steady state; tools/bench_diff.py fails a diff whose allocs_per_* counter
// rises. The counters are process-wide and relaxed: benches read deltas
// around single-threaded timing loops (the parallel E14 variants count
// worker allocations too, which is exactly what we want to observe).

struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};
};

inline AllocCounters& alloc_counters() noexcept {
  static AllocCounters c;
  return c;
}

/// Total operator-new calls so far (0 unless EFD_BENCH_ALLOC_PROBE is live).
inline std::uint64_t alloc_count() noexcept {
  return alloc_counters().allocs.load(std::memory_order_relaxed);
}

/// Records `delta_allocs / steps` as the "allocs_per_step" counter.
inline void alloc_counter(benchmark::State& state, std::uint64_t delta_allocs,
                          double steps) {
  state.counters["allocs_per_step"] =
      steps > 0 ? static_cast<double>(delta_allocs) / steps : 0.0;
}

inline telemetry::BenchEmitter& emitter() { return telemetry::BenchEmitter::instance(); }

/// Names the experiment and registers the atexit JSON write. Each bench
/// binary calls this once via the EFD_BENCH_JSON macro below.
inline void init_json(const char* experiment) {
  emitter().set_experiment(experiment);
  std::atexit([] { (void)emitter().write_file(); });
}

/// Prints a table header exactly once per distinct TITLE (keyed by title so a
/// binary printing several tables gets every header; the old process-global
/// once_flag suppressed all but the first), and makes that table current for
/// the rows that follow.
inline void table_header(const char* title, const char* columns) {
  if (emitter().table_header_once(title, columns)) {
    std::printf("\n=== %s ===\n%s\n", title, columns);
  }
}

/// Prints one table row, suppressing exact duplicates (google-benchmark
/// re-invokes benchmark functions while calibrating iteration counts).
/// Sized by a measuring vsnprintf pass, so long rows are never silently
/// truncated (a truncated row would also defeat the duplicate suppression).
/// Every row ends in exactly one newline, whether or not `fmt` has one, so
/// a row never runs into the google-benchmark output that follows it.
inline void row(const char* fmt, ...) {
  static std::set<std::string> seen;
  static std::mutex mu;
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int need = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (need < 0) {
    va_end(ap2);
    return;
  }
  std::string buf(static_cast<std::size_t>(need), '\0');
  std::vsnprintf(buf.data(), buf.size() + 1, fmt, ap2);
  va_end(ap2);
  while (!buf.empty() && buf.back() == '\n') buf.pop_back();
  const std::lock_guard<std::mutex> guard(mu);
  if (seen.insert(buf).second) {
    std::printf("%s\n", buf.c_str());
    emitter().add_row(buf);
  }
}

/// Attaches the standard perf counters of a simulation bench: model steps
/// per wall-second (rate over the whole timing loop), plus the final run's
/// register footprint and total write count.
inline void perf_counters(benchmark::State& state, double total_steps,
                          std::size_t footprint, std::size_t writes) {
  state.counters["steps_per_s"] = benchmark::Counter(total_steps, benchmark::Counter::kIsRate);
  state.counters["footprint"] = static_cast<double>(footprint);
  state.counters["writes"] = static_cast<double>(writes);
}

/// Distinct non-⊥ decisions of the world's C-processes.
inline std::set<Value> distinct_decisions(const World& w, int n) {
  std::set<Value> vals;
  for (int i = 0; i < n; ++i) {
    if (w.decided(cpid(i))) vals.insert(w.decision(cpid(i)));
  }
  return vals;
}

/// Records the finished state's counters into the JSON emitter. `name` is the
/// benchmark function name (the installed google-benchmark has no
/// State::name(), so it is passed explicitly); `args` render as "/arg"
/// suffixes to match the stdout report. Rate counters (kIsRate, including
/// SetItemsProcessed's items_per_second) are left out: google-benchmark
/// divides them by wall time only when it reports, so here they would hold
/// raw iteration-count sums. They stay in the stdout report.
inline void json_run(const benchmark::State& state, std::string name,
                     std::initializer_list<std::int64_t> args = {}) {
  for (const std::int64_t a : args) name += "/" + std::to_string(a);
  std::vector<std::pair<std::string, double>> counters;
  counters.reserve(state.counters.size());
  for (const auto& [key, c] : state.counters) {
    if ((c.flags & benchmark::Counter::kIsRate) == 0) counters.emplace_back(key, c.value);
  }
  emitter().record_benchmark(name, std::move(counters), state.iterations());
}

}  // namespace efd::bench

/// Place once at file scope in each bench binary: names the experiment and
/// arms the atexit BENCH_<exp>.json write.
#define EFD_BENCH_JSON(exp)                                     \
  namespace {                                                   \
  const bool efd_bench_json_registered = [] {                   \
    ::efd::bench::init_json(exp);                               \
    return true;                                                \
  }();                                                          \
  }

/// Place once at file scope (outside any namespace) in a bench binary that
/// reports allocation counters: replaces the global operator new/delete with
/// malloc/free forwarders that count into efd::bench::alloc_counters().
/// Replacement functions must have external linkage and appear in exactly
/// one TU — fine here, every bench binary is a single TU.
#define EFD_BENCH_ALLOC_PROBE()                                               \
  void* operator new(std::size_t n) {                                         \
    auto& c = ::efd::bench::alloc_counters();                                 \
    c.allocs.fetch_add(1, std::memory_order_relaxed);                         \
    c.bytes.fetch_add(n, std::memory_order_relaxed);                          \
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;                      \
    throw std::bad_alloc{};                                                   \
  }                                                                           \
  void* operator new[](std::size_t n) { return ::operator new(n); }           \
  void* operator new(std::size_t n, const std::nothrow_t&) noexcept {         \
    auto& c = ::efd::bench::alloc_counters();                                 \
    c.allocs.fetch_add(1, std::memory_order_relaxed);                         \
    c.bytes.fetch_add(n, std::memory_order_relaxed);                          \
    return std::malloc(n != 0 ? n : 1);                                       \
  }                                                                           \
  void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {     \
    return ::operator new(n, t);                                              \
  }                                                                           \
  void operator delete(void* p) noexcept {                                    \
    if (p != nullptr) {                                                       \
      ::efd::bench::alloc_counters().frees.fetch_add(1,                       \
                                                     std::memory_order_relaxed); \
      std::free(p);                                                           \
    }                                                                         \
  }                                                                           \
  void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); } \
  void operator delete[](void* p) noexcept { ::operator delete(p); }          \
  void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); } \
  void operator delete(void* p, const std::nothrow_t&) noexcept {             \
    ::operator delete(p);                                                     \
  }                                                                           \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {           \
    ::operator delete(p);                                                     \
  }
