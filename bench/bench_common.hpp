// Shared helpers for the experiment benches (E1..E20, see EXPERIMENTS.md).
//
// Every bench binary is a plain program that runs each experiment row once,
// prints the experiment's tables on stdout, and — via the
// telemetry::BenchEmitter behind these helpers — writes the tables, each
// row's counters and `git describe` to BENCH_E<n>.json. tools/bench_diff.py
// validates the JSON files and diffs them against the committed baselines
// in bench/baseline/. Nothing here is timed: perfbench/ is the repo's one
// timed benchmark.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <map>
#include <new>
#include <set>
#include <string>
#include <utility>

#include "efd/efd.hpp"

namespace efd::bench {

// ---- heap-allocation telemetry (EFD_BENCH_ALLOC_PROBE) ----
//
// Benches that instantiate EFD_BENCH_ALLOC_PROBE() at file scope replace the
// global operator new/delete with malloc/free forwarders, and count every
// operator-new call, so an experiment can report its true heap traffic
// (`allocs_per_step`). The arena-pooled hot
// path (sim/arena.hpp) must show ~0 allocations per explored state in
// steady state; tools/bench_diff.py fails a diff whose allocs_per_* counter
// rises. The counter is process-wide and relaxed: benches read deltas
// around one measured pass (the parallel E14 rows count worker allocations
// too, which is exactly what we want to observe).

/// The probe's operator-new counter.
inline std::atomic<std::uint64_t>& alloc_counter() noexcept {
  static std::atomic<std::uint64_t> allocs{0};
  return allocs;
}

/// Total operator-new calls so far (0 unless EFD_BENCH_ALLOC_PROBE is live).
inline std::uint64_t alloc_count() noexcept {
  return alloc_counter().load(std::memory_order_relaxed);
}

/// `allocs / steps`, the allocs_per_step counter (0 for an empty pass).
inline double per_step(std::uint64_t allocs, double steps) {
  return steps > 0 ? static_cast<double>(allocs) / steps : 0.0;
}

inline telemetry::BenchEmitter& emitter() { return telemetry::BenchEmitter::instance(); }

/// Prints a table header and makes that table current for the rows that
/// follow. Each table is printed once, so each title appears once.
inline void table_header(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
  emitter().add_table(title, columns);
}

/// Prints one row of the current table and records it. Sized by a measuring
/// vsnprintf pass, so long rows are never silently truncated. Every row ends
/// in exactly one newline, whether or not `fmt` has one.
inline void row(const char* fmt, ...) {
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
  std::printf("%s\n", buf.c_str());
  emitter().add_row(buf);
}

/// Records one experiment row's counters under `name`, with `args` rendered
/// as "/arg" suffixes (the names bench/baseline keys its counters by).
inline void record(std::string name, std::initializer_list<std::int64_t> args,
                   std::map<std::string, double> counters) {
  for (const std::int64_t a : args) name += "/" + std::to_string(a);
  emitter().record_benchmark(name, std::move(counters));
}

/// Distinct non-⊥ decisions of the world's C-processes.
inline std::set<Value> distinct_decisions(const World& w, int n) {
  std::set<Value> vals;
  for (int i = 0; i < n; ++i) {
    if (w.decided(cpid(i))) vals.insert(w.decision(cpid(i)));
  }
  return vals;
}

/// The whole main() of a bench binary: rejects any argument (exit 2), runs
/// `experiment` once, and writes BENCH_<name>.json (into $EFD_BENCH_JSON_DIR,
/// or the working directory). Returns 0, or 1 when the experiment threw (a
/// run that did not decide, a broken bound) or the file could not be written.
inline int main_of(const char* name, void (*experiment)(), int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n  takes no arguments; runs experiment %s once and "
                 "writes BENCH_%s.json\n", argv[0], name, name);
    return 2;
  }
  emitter().set_experiment(name);
  try {
    experiment();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 1;
  }
  std::fflush(stdout);
  const char* dir = std::getenv("EFD_BENCH_JSON_DIR");
  if (!emitter().write_file(dir != nullptr && dir[0] != '\0' ? dir : ".")) {
    std::fprintf(stderr, "%s: could not write BENCH_%s.json\n", name, name);
    return 1;
  }
  return 0;
}

}  // namespace efd::bench

/// Place once at file scope (outside any namespace) in a bench binary that
/// reports allocation counters: replaces the global operator new with
/// malloc forwarders that count into efd::bench::alloc_counter(), and
/// operator delete with a plain free() forwarder.
/// Replacement functions must have external linkage and appear in exactly
/// one TU — fine here, every bench binary is a single TU. The allocating
/// operator news and the freeing operator delete stay out of line: inlined
/// into a container's node allocation or release, they would show GCC
/// malloc() memory reaching operator delete, or operator-new memory
/// reaching free() (-Wmismatched-new-delete).
#define EFD_BENCH_ALLOC_PROBE()                                               \
  [[gnu::noinline]] void* operator new(std::size_t n) {                       \
    ::efd::bench::alloc_counter().fetch_add(1, std::memory_order_relaxed);    \
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;                      \
    throw std::bad_alloc{};                                                   \
  }                                                                           \
  void* operator new[](std::size_t n) { return ::operator new(n); }           \
  [[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept { \
    ::efd::bench::alloc_counter().fetch_add(1, std::memory_order_relaxed);    \
    return std::malloc(n != 0 ? n : 1);                                       \
  }                                                                           \
  void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {     \
    return ::operator new(n, t);                                              \
  }                                                                           \
  [[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }  \
  void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); } \
  void operator delete[](void* p) noexcept { ::operator delete(p); }          \
  void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); } \
  void operator delete(void* p, const std::nothrow_t&) noexcept {             \
    ::operator delete(p);                                                     \
  }                                                                           \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {           \
    ::operator delete(p);                                                     \
  }
