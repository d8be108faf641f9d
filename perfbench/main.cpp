// efd_perfbench: the simulator benchmark program (see README.md).
//
//   efd_perfbench --workload sweep|sweep_tiered|hierarchy|farm
//                 [--seed N] [--seconds S] [--trace 0|1] [--tmp DIR]
//
// Runs one workload with P = min(4, hardware threads) threads. Prints report
// lines starting with '#', then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit code 0 unless the
// arguments or the scratch directory are unusable.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting forwarders for the global allocation functions. Off unless a traced
// run enables them, so the untraced hot path pays one relaxed load per new.
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
#pragma GCC diagnostic push
// GCC pairs the free() below with every inlined new-expression it can see.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

namespace perfbench {

void Result::check(bool ok, const std::string& what) { check_many(1, ok ? 0 : 1, what); }

void Result::check_many(std::int64_t ops, std::int64_t bad, const std::string& what) {
  attempted += ops;
  failed += bad;
  if (bad != 0) note(fmt("CHECK FAILED (%lld of %lld): %s", static_cast<long long>(bad),
                         static_cast<long long>(ops), what.c_str()));
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::note(const std::string& line) { notes.push_back(line); }

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void set_alloc_counting(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

bool dir_empty(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return true;
  return std::filesystem::is_empty(dir, ec) && !ec;
}

bool holds_files(const std::string& dir) {
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_directory(ec)) return true;
  }
  return static_cast<bool>(ec);
}

namespace {

/// A DFS shaped like the explorer's hot loop, written here so that no library
/// change can move it: per node, fold 7 per-process chains into a signature
/// and insert it into a flat set; per edge, advance one chain through an
/// indirect call and undo it on the way back. The 4 MiB table stays below
/// every workload's own footprint, so it never sets peak_rss_mb.
struct ReferenceDfs {
  static constexpr std::size_t kSlots = std::size_t{1} << 19;
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kSlots, 0);
  std::vector<std::uint64_t> procs = std::vector<std::uint64_t>(7, 1469598103934665603ULL);
  std::vector<std::uint64_t> undo;
  std::function<std::uint64_t(std::uint64_t)> step = mix;
  std::uint64_t fresh = 0;

  bool insert(std::uint64_t k) {
    std::size_t h = static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> 45);
    while (table[h] != 0) {
      if (table[h] == k) return false;
      h = (h + 1) & (kSlots - 1);
    }
    table[h] = k;
    ++fresh;
    return true;
  }

  void dfs(int depth, std::size_t last) {
    std::uint64_t s = 0x9AE16A3B2F90404FULL;
    for (const std::uint64_t p : procs) s = s * 1099511628211ULL + mix(p);
    if (depth == 0 || !insert(s | 1)) return;
    for (std::size_t c = 1; c <= 2; ++c) {
      const std::size_t pi = (last + c) % procs.size();
      undo.push_back(procs[pi]);
      procs[pi] = step(procs[pi] * 1099511628211ULL + static_cast<std::uint64_t>(depth % 3));
      dfs(depth - 1, pi);
      procs[pi] = undo.back();
      undo.pop_back();
    }
  }
};

volatile std::uint64_t g_ref_sink = 0;

}  // namespace

double reference_s() {
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const double a = wall_now();
    ReferenceDfs r;
    r.dfs(17, 0);
    g_ref_sink = g_ref_sink + r.fresh;
    t.push_back(wall_now() - a);
  }
  return median(t);
}

double reference_scale(double ref_s) {
  return std::pow(ref_s / kReferenceNominal_s, kReferenceExponent);
}

std::string fmt(const char* f, ...) {
  va_list ap;
  va_start(ap, f);
  va_list ap2;
  va_copy(ap2, ap);
  const int need = std::vsnprintf(nullptr, 0, f, ap);
  va_end(ap);
  std::string out(need > 0 ? static_cast<std::size_t>(need) : 0, '\0');
  if (need > 0) std::vsnprintf(out.data(), out.size() + 1, f, ap2);
  va_end(ap2);
  return out;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: efd_perfbench --workload sweep|sweep_tiered|hierarchy|farm\n"
               "                     [--seed N] [--seconds S] [--trace 0|1] [--tmp DIR]\n");
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  return fmt("%.17g", v);
}

void print_result(const Result& r) {
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# fail_ratio %.6g (%lld failed of %lld checked operations)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                              : 0.0,
              static_cast<long long>(r.failed), static_cast<long long>(r.attempted));
}

std::string result_json(const Result& r) {
  std::string out = fmt("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                        r.failed == 0 && r.attempted > 0 ? "true" : "false",
                        static_cast<long long>(r.attempted), static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
               m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
  }
  return out + "}}";
}

int run(int argc, char** argv) {
  Options opt;
  opt.threads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  opt.tmp = ".bench_build/perfbench-tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (a == "--tmp") {
      opt.tmp = v;
    } else {
      return usage();
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.tmp, ec);
  if (ec || holds_files(opt.tmp)) {
    std::fprintf(stderr, "efd_perfbench: scratch dir %s is unusable or holds files\n",
                 opt.tmp.c_str());
    return 2;
  }

  std::printf("# efd_perfbench seed=%llu seconds=%g trace=%d threads(P)=%d\n",
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.threads);
  const Result r = run_workload(opt);
  print_result(r);
  std::printf("%s\n", result_json(r).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_perfbench: %s\n", e.what());
    return 6;
  }
}
