// Exploration telemetry and machine-readable bench emission.
//
// Two pieces live here, both consumed by the bench layer (bench_common.hpp)
// and by tools/bench_diff.py:
//
//  * ExploreStats — the counter block threaded through both solvability
//    engines and the parallel frontier (core/solvability). The first group
//    of fields is DETERMINISTIC for fully-covered clean sweeps: states,
//    terminal runs and dedup traffic depend only on the explored signature
//    closure, so they are byte-identical across engines (full-replay vs
//    incremental) and thread counts — the property test_telemetry pins.
//    The second group (undo depth, respawns, steals, timing) describes how
//    a particular run got there and is excluded from equality checks.
//
//  * telemetry::Json + telemetry::BenchEmitter — a minimal ordered JSON
//    value (writer AND parser, so emission is round-trip testable without
//    external deps) and the per-process collector behind the BENCH_E<n>.json
//    files: experiment name, one counter map per benchmark, the stdout
//    tables, and `git describe`. BenchEmitter also owns the once-per-TITLE
//    table-header suppression (the old bench-local std::once_flag dropped
//    every header after the first in two-table binaries).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace efd {

/// Counters of one exploration sweep (explore_k_concurrent) or an aggregate
/// of several (max_clean_level, classify). All counts are totals across the
/// probe + every parallel shard.
struct ExploreStats {
  // -- deterministic for fully-covered clean sweeps (engine- and
  //    thread-count-invariant; see DESIGN.md "Exploration engine") --
  std::int64_t states = 0;         ///< configurations charged against the budget
  std::int64_t terminal_runs = 0;  ///< complete runs reached
  std::int64_t dedup_queries = 0;  ///< signature-set lookups
  std::int64_t dedup_misses = 0;   ///< lookups that inserted (unique configurations)

  // -- run-shape dependent (schedule, engine and thread-count specific) --
  std::int64_t blocked_runs = 0;   ///< dead-end nodes: live processes, every one
                                   ///< blocked on an empty-mailbox recv (substrate
                                   ///< worlds only; see core/solvability "blocking
                                   ///< recv"). Cross-backend equality is asserted
                                   ///< by tests/test_substrate, not test_telemetry.
  std::int64_t dedup_hits = 0;     ///< lookups pruned as already-seen
  std::int64_t max_undo_depth = 0; ///< deepest undo log (incremental engine)
  std::int64_t respawns = 0;       ///< coroutines rebuilt after a backtrack
  std::int64_t redelivers = 0;     ///< logged results replayed into rebuilt frames
  std::int64_t ghost_hits = 0;     ///< steps replayed against a ran-ahead frame (no rebuild)
  std::int64_t pool_steals = 0;    ///< frontier jobs executed by a stealing worker
  int threads = 1;                 ///< worker count of the sweep
  double elapsed_s = 0;            ///< wall time of the sweep
  double states_per_s = 0;         ///< states / elapsed_s (0 when unmeasured)

  // -- tiered dedup store traffic (core/diskset.hpp; all zero for a
  //    1-thread sweep in plain in-memory mode, which uses no tiered store;
  //    parallel sweeps always run on one, so their recent/mem hits are
  //    filled in the plain mode too). Which tier answers a duplicate is
  //    thread-interleaving dependent, so these live in the run-shape group
  //    even though their sums relate to the deterministic dedup counters
  //    (recent+mem+cold hits == dedup_hits). --
  std::int64_t dedup_recent_hits = 0;  ///< duplicates answered by the tier-0 TLS cache
  std::int64_t dedup_mem_hits = 0;     ///< duplicates found in the in-memory shards
  std::int64_t dedup_cold_probes = 0;  ///< in-memory misses that consulted the disk tier
  std::int64_t dedup_bloom_skips = 0;  ///< cold probes settled by the bloom prefilter
  std::int64_t dedup_cold_hits = 0;    ///< duplicates found in an mmap'd run
  std::int64_t dedup_spills = 0;       ///< shard drains to disk
  std::int64_t dedup_spilled_sigs = 0; ///< signatures moved to disk in total
  std::int64_t dedup_spill_bytes = 0;  ///< bytes written to run files in total
  std::int64_t dedup_merges = 0;       ///< per-shard run merges
  bool mem_exhausted = false;          ///< a sweep hit its memory cap with no disk tier

  /// Accumulates another sweep's counters (sums; max for depth; threads and
  /// rates keep the maximum seen so aggregates stay meaningful).
  void merge(const ExploreStats& o);
};

namespace telemetry {

/// Minimal JSON value: null, bool, int64, double, string, array, object.
/// Objects preserve insertion order so emitted files diff stably. The parser
/// accepts exactly what dump() produces (plus arbitrary whitespace), which
/// is all the round-trip tests and bench_diff need.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(double v) : kind_(Kind::kDouble), dbl_(v) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(dbl_) : int_;
  }
  [[nodiscard]] double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : dbl_;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Array/object element count.
  [[nodiscard]] std::size_t size() const noexcept {
    return kind_ == Kind::kArray ? arr_.size() : obj_.size();
  }
  /// Array element (throws std::out_of_range).
  [[nodiscard]] const Json& at(std::size_t i) const { return arr_.at(i); }
  /// Appends to an array (converts a null value into an empty array first).
  void push_back(Json v);

  /// Object field, inserted null if absent (converts null into an object).
  Json& operator[](const std::string& key);
  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const { return obj_; }

  /// Serializes with `indent` spaces per level (0 = compact single line).
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parses a JSON document. Throws std::runtime_error on malformed input
  /// or trailing garbage.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double dbl_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// `git describe --always --dirty` of the working tree, "unknown" when git
/// is unavailable. Invoked once per emission, not per benchmark.
[[nodiscard]] std::string git_describe();

/// Per-process collector for one experiment's BENCH_E<n>.json. Thread-safe;
/// the bench binaries drive the process-global instance() through the
/// bench_common.hpp helpers, tests construct their own.
class BenchEmitter {
 public:
  BenchEmitter() = default;
  static BenchEmitter& instance();

  void set_experiment(std::string name);
  [[nodiscard]] std::string experiment() const;

  /// True exactly once per distinct TITLE, and makes that table current for
  /// subsequent add_row calls. Keyed by title: a process printing several
  /// tables gets every header (the old single process-global once_flag
  /// suppressed all but the first).
  bool table_header_once(const std::string& title, const std::string& columns);

  /// Records one rendered row into the current table (no-op before the
  /// first table_header_once).
  void add_row(const std::string& row);

  /// Records a benchmark's counters; re-recording the same name overwrites
  /// (google-benchmark re-invokes functions while calibrating).
  void record_benchmark(const std::string& name,
                        std::vector<std::pair<std::string, double>> counters,
                        std::int64_t iterations);

  /// The efd-bench-v1 document: schema, experiment, git, benchmarks, tables.
  [[nodiscard]] Json to_json() const;

  /// Writes BENCH_<experiment>.json into `dir` (empty: $EFD_BENCH_JSON_DIR,
  /// falling back to "."). False if nothing was recorded or the write failed.
  bool write_file(const std::string& dir = "") const;

 private:
  struct Table {
    std::string title;
    std::string columns;
    std::vector<std::string> rows;
  };
  struct Bench {
    std::string name;
    std::int64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  mutable std::mutex mu_;
  std::string experiment_;
  std::vector<Table> tables_;
  std::size_t current_table_ = static_cast<std::size_t>(-1);
  std::vector<Bench> benches_;
};

}  // namespace telemetry
}  // namespace efd
