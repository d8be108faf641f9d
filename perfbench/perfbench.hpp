// Shared pieces of the simulator benchmark (see README.md in this directory).
//
// The benchmark measures the efd library only from outside: it times calls
// into each layer's public functions and reads the ExploreStats / FarmStats
// counters those calls return. Nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 25;  ///< measuring budget of one run
  bool trace = false;   ///< per-layer (traced) run instead of the end-to-end one
  int threads = 1;      ///< P = min(4, hardware threads)
  std::string tmp;      ///< private scratch root (spill dirs); must hold no files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload run: checked operations, the metrics of the requested kind
/// (end-to-end or per-layer) and free-form report lines.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  /// Counts one checked operation; a failed check is also reported.
  void check(bool ok, const std::string& what);
  /// Counts `ops` operations of which `bad` failed the check `what`.
  void check_many(std::int64_t ops, std::int64_t bad, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
};

// ---- measurement helpers (main.cpp) ----

double wall_now();  ///< steady clock, seconds
double cpu_now();   ///< process CPU time (all threads), seconds
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
double peak_rss_mib();
/// Heap allocations are counted only while enabled (traced runs).
void set_alloc_counting(bool on);
std::uint64_t alloc_count();
/// True iff `dir` exists and holds no entries (or does not exist at all).
bool dir_empty(const std::string& dir);
/// True iff `dir` or a subdirectory holds a non-directory entry (or cannot be read).
bool holds_files(const std::string& dir);
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

/// splitmix64 finalizer: the benchmark's own hash for inputs and probe keys.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Wall seconds of a fixed benchmark-local DFS kernel (median of 5 runs).
/// The gated 1-thread rates and setup_s are scaled by it, measured around
/// each timed phase, to cancel host speed regimes (see README.md, "Noise").
double reference_s();
/// Reference time the scaled figures are expressed at.
inline constexpr double kReferenceNominal_s = 0.02;
/// The reference reacts to host load more strongly than the workloads do:
/// across host periods that moved the raw rates by up to 64%, this exponent
/// kept the scaled medians within 8% where the full ratio (1.0) moved them
/// by up to 34% the other way (README.md, "Noise").
inline constexpr double kReferenceExponent = 0.7;
/// Factor a time measured at reference time `ref_s` is divided by (a rate
/// is multiplied by it) to express it at the nominal reference.
double reference_scale(double ref_s);

// ---- workloads (workloads.cpp) ----

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();
Result run_workload(const Options& opt);

// ---- per-layer probes (layers.cpp) ----

/// Stage costs measured by timing public layer functions on fixed inputs.
struct LayerCosts {
  double step_ns = 0;        ///< World::step, one_concurrent processes
  double resume_ns = 0;      ///< step minus the register apply it performs
  double read_ns = 0;        ///< RegisterFile::read
  double write_ns = 0;       ///< RegisterFile::write
  double undo_write_ns = 0;  ///< RegisterFile::undo_write
  double fold_ns = 0;        ///< World::state_hash
  double flat_insert_ns = 0;
  double sharded_insert_ns_x1 = 0;
  double sharded_insert_ns_par = 0;  ///< thread-ns per insert, P threads
  double diskset_insert_ns = 0;      ///< TieredSigSet, 4 MiB + disk tier
  double relation_ns = 0;            ///< SetAgreementTask::relation
  double pool_dispatch_us = 0;       ///< WorkStealingPool::run, P*4 no-op tasks
  double resident_dispatch_us = 0;   ///< ResidentPool::run, same batch
  double deliver_ns = 0;             ///< ChannelFabric::deliver, no charges
  double deliver_charged_ns = 0;     ///< same with drop/dup/delay charges
  double observe_ns = 0;             ///< LivenessMonitor::on_step
  double corpus_insert_us = 0;       ///< in-memory CorpusStore::insert
};

LayerCosts measure_layers(const Options& opt, Result& res);
void add_layer_metrics(const LayerCosts& c, Result& res);

}  // namespace perfbench
