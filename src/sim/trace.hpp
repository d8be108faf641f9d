// Run traces and run-shape checkers (fairness, k-concurrency).
//
// A trace is the executed prefix of a run: one record per scheduled step,
// including null steps of decided/terminated processes. The checkers below
// implement the paper's run predicates on finite prefixes:
//  * participation: a C-process participates once it takes its first step
//    (its first step is the input write, per §2.2);
//  * k-concurrency: at every moment, at most k participating C-processes are
//    undecided (§2.2).
//
// Storage (PR 6): Trace is a struct-of-arrays container, not a
// std::vector<StepRecord>. Each per-step field lives in its own dense array
// (time / packed pid / op+flags byte / RegId / value indices); the Values
// themselves sit in a side pool that Nil never enters (the overwhelmingly
// common value AND result of a step is Nil, which costs 4 bytes of sentinel
// index instead of 24 bytes of Value). A step record is ~21 bytes of dense
// arrays versus the ~96-byte AoS StepRecord, the checkers and trace_hash scan
// flat arrays, and appending a Nil-valued step allocates nothing.
//
// The record API is preserved through MATERIALIZED views: trace[i] and
// iteration yield StepRecord by value. `const StepRecord& r = trace[i]` and
// `for (const auto& s : trace)` still work (lifetime extension); what no
// longer works is mutating a record in place — traces are append-only.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sim/ids.hpp"
#include "sim/proc.hpp"
#include "sim/value.hpp"

namespace efd {

/// One step of a run, materialized from the trace's column arrays.
struct StepRecord {
  Time time{};
  Pid pid{};
  OpKind op{OpKind::kYield};
  RegAddr addr;       ///< interned register handle for read/write
  Value value;        ///< written / decided value
  Value result;       ///< read result / FD sample
  bool null_step{false};  ///< process already terminated; step had no effect
  bool terminated{false};  ///< this step ran the coroutine to completion

  /// Canonical register name of `addr` ("" when the op has no register).
  [[nodiscard]] const std::string& addr_name() const;
  [[nodiscard]] std::string to_string() const;
};

/// Append-only struct-of-arrays trace. Records are read back as materialized
/// StepRecord values; hot consumers (checkers, trace_hash) use the column
/// accessors instead and never touch a Value they don't need.
class Trace {
 public:
  Trace() = default;

  /// Appends one step from its parts (the World's fast path: no StepRecord
  /// is ever assembled). Nil values/results are not pooled.
  void append(Time time, Pid pid, OpKind op, RegAddr addr, const Value& value,
              const Value& result, bool null_step, bool terminated) {
    time_.push_back(time);
    pid_.push_back(pack_pid(pid));
    opflags_.push_back(static_cast<std::uint8_t>(static_cast<unsigned>(op) |
                                                 (null_step ? kNullBit : 0u) |
                                                 (terminated ? kTermBit : 0u)));
    addr_.push_back(addr.id());
    value_.push_back(pool(value));
    result_.push_back(pool(result));
  }
  void push_back(const StepRecord& r) {
    append(r.time, r.pid, r.op, r.addr, r.value, r.result, r.null_step, r.terminated);
  }

  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return time_.empty(); }
  /// Pre-sizes the record columns (the value pool grows on demand).
  void reserve(std::size_t records) {
    time_.reserve(records);
    pid_.reserve(records);
    opflags_.reserve(records);
    addr_.reserve(records);
    value_.reserve(records);
    result_.reserve(records);
  }
  void clear() noexcept {
    time_.clear();
    pid_.clear();
    opflags_.clear();
    addr_.clear();
    value_.clear();
    result_.clear();
    pool_.clear();
  }

  /// Materializes record i (copies the two Values).
  [[nodiscard]] StepRecord operator[](std::size_t i) const {
    StepRecord r;
    r.time = time_[i];
    r.pid = pid_at(i);
    r.op = op_at(i);
    r.addr = RegAddr::from_id(addr_[i]);
    r.value = value_at(i);
    r.result = result_at(i);
    r.null_step = null_at(i);
    r.terminated = term_at(i);
    return r;
  }

  // ---- column accessors (no Value copies) ----
  [[nodiscard]] Time time_at(std::size_t i) const noexcept { return time_[i]; }
  [[nodiscard]] Pid pid_at(std::size_t i) const noexcept {
    const std::uint32_t p = pid_[i];
    return Pid{static_cast<ProcKind>(p >> 31), static_cast<int>(p & 0x7FFFFFFFu)};
  }
  [[nodiscard]] OpKind op_at(std::size_t i) const noexcept {
    return static_cast<OpKind>(opflags_[i] & kOpMask);
  }
  [[nodiscard]] RegAddr addr_at(std::size_t i) const noexcept {
    return RegAddr::from_id(addr_[i]);
  }
  [[nodiscard]] const Value& value_at(std::size_t i) const noexcept {
    return value_[i] == kNilIdx ? kNil : pool_[value_[i]];
  }
  [[nodiscard]] const Value& result_at(std::size_t i) const noexcept {
    return result_[i] == kNilIdx ? kNil : pool_[result_[i]];
  }
  [[nodiscard]] bool null_at(std::size_t i) const noexcept {
    return (opflags_[i] & kNullBit) != 0;
  }
  [[nodiscard]] bool term_at(std::size_t i) const noexcept {
    return (opflags_[i] & kTermBit) != 0;
  }

  /// Input iterator yielding materialized StepRecord values.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = StepRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = StepRecord;

    const_iterator() = default;
    const_iterator(const Trace* t, std::size_t i) noexcept : t_(t), i_(i) {}
    [[nodiscard]] StepRecord operator*() const { return (*t_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    const Trace* t_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size()}; }

 private:
  static constexpr std::uint32_t kNilIdx = 0xFFFFFFFFu;
  static constexpr std::uint8_t kOpMask = 0x07;
  static constexpr std::uint8_t kNullBit = 0x40;
  static constexpr std::uint8_t kTermBit = 0x80;

  [[nodiscard]] static std::uint32_t pack_pid(Pid pid) noexcept {
    return (static_cast<std::uint32_t>(pid.kind) << 31) |
           (static_cast<std::uint32_t>(pid.index) & 0x7FFFFFFFu);
  }
  [[nodiscard]] std::uint32_t pool(const Value& v) {
    if (v.is_nil()) return kNilIdx;
    pool_.push_back(v);
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  std::vector<Time> time_;
  std::vector<std::uint32_t> pid_;      ///< kind in bit 31, index below
  std::vector<std::uint8_t> opflags_;   ///< op in bits 0..2, flags in 6..7
  std::vector<RegId> addr_;             ///< kInvalidRegId for register-less ops
  std::vector<std::uint32_t> value_;    ///< pool index, kNilIdx for Nil
  std::vector<std::uint32_t> result_;   ///< pool index, kNilIdx for Nil
  std::vector<Value> pool_;             ///< non-Nil values, in append order
};

/// Maximum over time of |{participating C-processes not yet decided}|.
[[nodiscard]] int max_concurrency(const Trace& trace);

/// True iff the trace is k-concurrent in the paper's sense.
[[nodiscard]] bool is_k_concurrent(const Trace& trace, int k);

/// Number of (non-null) steps taken by `pid` in the trace.
[[nodiscard]] int steps_of(const Trace& trace, Pid pid);

/// Renders at most `limit` records, one per line (for demos / debugging).
[[nodiscard]] std::string format_trace(const Trace& trace, std::size_t limit = 100);

/// Order-dependent deterministic hash of a trace: folds every field of every
/// record, keying registers by their canonical-NAME hash (not the RegId), so
/// the result is stable across processes, interning orders and thread
/// counts. This is the identity record/replay (sim/replay.hpp) is checked
/// against: replaying a tape must reproduce this hash bit-for-bit.
[[nodiscard]] std::uint64_t trace_hash(const Trace& trace);

}  // namespace efd
