// Flat open-addressing set of 64-bit exploration signatures.
//
// The dedup set is the hottest container in an exploration sweep: one lookup
// per DFS node, one insert per unseen configuration. std::unordered_set
// allocates a node per insert and chases a bucket pointer per lookup; this
// set stores the signatures in one flat power-of-two array with linear
// probing, so a sweep's dedup traffic performs zero allocations outside the
// (amortized, doubling) table growths.
//
// Semantics match unordered_set::insert().second exactly: first insert wins,
// duplicates report false. Signatures are already avalanche-mixed by the
// explorers (mix64 / content hashes), but the probe index is remixed here
// anyway so a structured signature family cannot cluster the table.
// Not thread-safe; it is the shard table of the one dedup store every
// sweep inserts into: ShardedSigSet (core/diskset.hpp) stripes instances of
// this set behind per-shard mutexes, and the disk tier drains a shard into
// a run via drain_into() when it crosses its byte budget.
#pragma once

#include <cstdint>
#include <vector>

namespace efd {

class FlatSigSet {
 public:
  FlatSigSet() : slots_(kInitialCap, kEmpty) {}

  /// Inserts `sig`; true iff it was unseen (first insert wins). The load
  /// check runs only when the probe proved the signature fresh: inserting a
  /// duplicate can never grow the table, and the aside-tracked zero
  /// signature never counts toward the load factor (it occupies no slot).
  bool insert(std::uint64_t sig) {
    // 0 cannot live in the table (it marks empty slots); track it aside.
    if (sig == kEmpty) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = probe_start(sig, mask);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == sig) return false;
      i = (i + 1) & mask;
    }
    if ((table_size_ + 1) * 10 >= slots_.size() * 7) {
      grow();
      // The table moved: re-derive the insertion slot (no duplicate can
      // appear — growth only rehashes existing, distinct signatures).
      const std::size_t m2 = slots_.size() - 1;
      i = probe_start(sig, m2);
      while (slots_[i] != kEmpty) i = (i + 1) & m2;
    }
    slots_[i] = sig;
    ++table_size_;
    return true;
  }

  /// True iff `sig` was inserted before. Never grows the table.
  [[nodiscard]] bool contains(std::uint64_t sig) const noexcept {
    if (sig == kEmpty) return has_zero_;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = probe_start(sig, mask);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == sig) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return table_size_ + (has_zero_ ? 1u : 0u);
  }

  /// Bytes held by the slot array (the set's whole footprint; used by the
  /// tiered store's per-shard spill budget).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.size() * sizeof(std::uint64_t);
  }

  /// Moves every stored signature (including an aside-tracked zero) into
  /// `out` (appended, unsorted) and resets the set to its initial capacity,
  /// releasing the table memory. Spill primitive of the tiered store.
  void drain_into(std::vector<std::uint64_t>& out) {
    for (const std::uint64_t sig : slots_) {
      if (sig != kEmpty) out.push_back(sig);
    }
    if (has_zero_) out.push_back(kEmpty);
    clear();
  }

  /// Empties the set and shrinks it back to the initial capacity (the swap
  /// idiom guarantees the grown table's memory is actually released, which
  /// is the whole point of spilling a shard).
  void clear() {
    std::vector<std::uint64_t>(kInitialCap, kEmpty).swap(slots_);
    table_size_ = 0;
    has_zero_ = false;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kInitialCap = 1024;  // power of two

  [[nodiscard]] static std::size_t probe_start(std::uint64_t sig, std::size_t mask) noexcept {
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 17) & mask;
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t sig : old) {
      if (sig == kEmpty) continue;
      std::size_t i = probe_start(sig, mask);
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = sig;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t table_size_ = 0;  ///< slots occupied (excludes the aside zero)
  bool has_zero_ = false;
};

}  // namespace efd
