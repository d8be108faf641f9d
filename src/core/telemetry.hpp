// Exploration telemetry and machine-readable bench emission.
//
// Two pieces live here, both consumed by the bench layer (bench_common.hpp)
// and by tools/bench_diff.py:
//
//  * ExploreStats — the counter block threaded through the explorer and
//    its parallel frontier (core/solvability). The first group of fields is
//    DETERMINISTIC for fully-covered clean sweeps: states, terminal runs and
//    dedup traffic depend only on the explored signature closure, so they
//    are byte-identical across thread counts and equal to the full-replay
//    test oracle's (tests/support/explore_oracle.hpp) — the property
//    test_telemetry pins.
//    The second group (undo depth, respawns, steals, timing) describes how
//    a particular run got there and is excluded from equality checks.
//
//  * telemetry::Json + telemetry::BenchEmitter — a minimal ordered JSON
//    value writer and the per-process collector behind the BENCH_E<n>.json
//    files: experiment name, one counter map per experiment row, the stdout
//    tables, and `git describe`. tools/bench_diff.py is the reader.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace efd {

/// Counters of one exploration sweep (explore_k_concurrent) or an aggregate
/// of several (max_clean_level, classify). All counts are totals across the
/// probe + every parallel shard.
struct ExploreStats {
  // -- deterministic for fully-covered clean sweeps (thread-count-invariant
  //    and equal to the test oracle's; see DESIGN.md "Exploration engine") --
  std::int64_t states = 0;         ///< configurations charged against the budget
  std::int64_t terminal_runs = 0;  ///< complete runs reached
  std::int64_t dedup_queries = 0;  ///< signature-set lookups
  std::int64_t dedup_misses = 0;   ///< lookups that inserted (unique configurations)

  // -- run-shape dependent (schedule and thread-count specific), except
  //    blocked_runs, which is as deterministic as the group above --
  std::int64_t blocked_runs = 0;   ///< dead-end nodes: live processes, every one
                                   ///< blocked on an empty-mailbox recv (substrate
                                   ///< worlds only; see core/solvability "blocking
                                   ///< recv"). Cross-backend equality is asserted
                                   ///< by tests/test_substrate.
  std::int64_t dedup_hits = 0;     ///< lookups pruned as already-seen
  std::int64_t max_undo_depth = 0; ///< deepest undo log
  std::int64_t respawns = 0;       ///< coroutines rebuilt after a backtrack
  std::int64_t redelivers = 0;     ///< logged results replayed into rebuilt frames
  std::int64_t ghost_hits = 0;     ///< steps replayed against a ran-ahead frame (no rebuild)
  std::int64_t pool_steals = 0;    ///< frontier jobs executed by a stealing worker
  int threads = 1;                 ///< worker count of the sweep
  double elapsed_s = 0;            ///< wall time of the sweep
  double states_per_s = 0;         ///< states / elapsed_s (0 when unmeasured)

  // -- tiered dedup store traffic (core/diskset.hpp; every sweep runs on
  //    that store, so these are filled at every thread count and store
  //    shape). Which tier answers a duplicate is thread-interleaving
  //    dependent, so these live in the run-shape group even though their
  //    sums relate to the deterministic dedup counters
  //    (recent+mem+cold hits == dedup_hits). --
  std::int64_t dedup_recent_hits = 0;  ///< duplicates answered by the tier-0 per-thread cache
  std::int64_t dedup_mem_hits = 0;     ///< duplicates found in the in-memory shards
  std::int64_t dedup_cold_probes = 0;  ///< in-memory misses that consulted the disk tier
  std::int64_t dedup_bloom_skips = 0;  ///< cold probes settled by the bloom prefilter
  std::int64_t dedup_cold_hits = 0;    ///< duplicates found in an mmap'd run
  std::int64_t dedup_spills = 0;       ///< shard drains to disk
  std::int64_t dedup_spilled_sigs = 0; ///< signatures moved to disk in total
  std::int64_t dedup_spill_bytes = 0;  ///< bytes spilled (merges rewrite runs uncounted)
  std::int64_t dedup_merges = 0;       ///< per-shard run merges

  /// Accumulates another sweep's counters (sums; max for depth; threads and
  /// rates keep the maximum seen so aggregates stay meaningful).
  void merge(const ExploreStats& o);
};

namespace telemetry {

/// Minimal JSON value: null, bool, int64, double, string, array, object.
/// Objects preserve insertion order so emitted files diff stably.
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

  /// Appends a table and makes it current for subsequent add_row calls.
  void add_table(const std::string& title, const std::string& columns);

  /// Records one rendered row into the current table (no-op before the
  /// first add_table).
  void add_row(const std::string& row);

  /// Records one experiment row's counters (emitted sorted by name).
  void record_benchmark(const std::string& name, std::map<std::string, double> counters);

  /// The efd-bench-v1 document: schema, experiment, git, benchmarks, tables.
  [[nodiscard]] Json to_json() const;

  /// Writes BENCH_<experiment>.json into the directory `dir`. False if
  /// nothing was recorded or the write failed.
  bool write_file(const std::string& dir) const;

 private:
  struct Table {
    std::string title;
    std::string columns;
    std::vector<std::string> rows;
  };
  struct Bench {
    std::string name;
    std::map<std::string, double> counters;
  };

  mutable std::mutex mu_;
  std::string experiment_;
  std::vector<Table> tables_;
  std::size_t current_table_ = static_cast<std::size_t>(-1);
  std::vector<Bench> benches_;
};

}  // namespace telemetry
}  // namespace efd
