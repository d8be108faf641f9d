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
//
// It is the shard table of the one dedup store every sweep inserts into,
// TieredSigSet (core/diskset.hpp), which writes it with claim(), the
// many-writer form: the slots are atomic words, a claim takes an empty slot
// with one CAS and neither counts nor grows, and the store decides when to
// grow() a shard or, through its disk tier, to copy_into() a run and
// clear() the table, with no claim in flight. insert() is the single-writer
// form (it counts and grows the table itself), with which the lasso search
// (core/bivalence.cpp) dedups its configurations. Relaxed atomic loads and
// stores compile to plain moves on x86-64, so insert() costs what it would
// on a plain array.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace efd {

class FlatSigSet {
 public:
  FlatSigSet() : slots_(kInitialCap) {}

  /// Inserts `sig`; true iff it was unseen (first insert wins). The load
  /// check runs only when the probe proved the signature fresh: inserting a
  /// duplicate can never grow the table, and the aside-tracked zero
  /// signature never counts toward the load factor (it occupies no slot).
  /// Single writer: no insert(), claim() or grow() may run concurrently.
  bool insert(std::uint64_t sig) {
    // 0 cannot live in the table (it marks empty slots); track it aside.
    if (sig == kEmpty) {
      const bool fresh = !has_zero_.load(std::memory_order_relaxed);
      has_zero_.store(true, std::memory_order_relaxed);
      return fresh;
    }
    const std::size_t m = mask();
    std::size_t i = probe_start(sig, m);
    for (std::uint64_t cur; (cur = load(i)) != kEmpty; i = (i + 1) & m) {
      if (cur == sig) return false;
    }
    if (at_load_limit(table_size_ + 1, m + 1)) {
      grow();
      // The table moved: re-derive the insertion slot (no duplicate can
      // appear — growth only rehashes existing, distinct signatures).
      i = empty_slot_for(sig);
    }
    slots_[i].store(sig, std::memory_order_relaxed);
    ++table_size_;
    return true;
  }

  /// The growth rule: a table holding `entries` of `capacity` slots is
  /// due to double (a 0.7 load factor).
  [[nodiscard]] static constexpr bool at_load_limit(std::size_t entries,
                                                    std::size_t capacity) noexcept {
    return entries * 10 >= capacity * 7;
  }

  /// Outcome of one claim().
  enum class Claim { kFresh, kPresent, kFull };

  /// Many-writer insert: probes for `sig` and takes the first empty slot on
  /// its path with one CAS. Racing claims of one signature walk the same
  /// path and meet at the same first empty slot (a slot, once written,
  /// never changes), so exactly one reports kFresh. kFull: the whole table
  /// was probed without finding `sig` or an empty slot. Never grows and
  /// never counts (size() covers insert() only): the caller keeps the load
  /// count and calls grow() once no claim is in flight. Safe against
  /// concurrent claim(); nothing else may run alongside.
  ///
  /// `stored_elsewhere(sig)` is asked at most once, when the table has
  /// proved `sig` absent (the probe reached an empty slot, or the whole
  /// path): true reports kPresent with nothing claimed. The tiered store
  /// asks its disk tier there, which no claim changes.
  template <class StoredElsewhere>
  Claim claim(std::uint64_t sig, StoredElsewhere&& stored_elsewhere) {
    if (sig == kEmpty) {
      if (has_zero_.load(std::memory_order_relaxed) || stored_elsewhere(sig)) {
        return Claim::kPresent;
      }
      return has_zero_.exchange(true, std::memory_order_relaxed) ? Claim::kPresent
                                                                 : Claim::kFresh;
    }
    const std::size_t m = mask();
    std::size_t i = probe_start(sig, m);
    bool asked = false;
    for (std::size_t probed = 0; probed <= m; ++probed, i = (i + 1) & m) {
      std::uint64_t cur = load(i);
      if (cur == kEmpty) {
        if (!asked) {
          if (stored_elsewhere(sig)) return Claim::kPresent;
          asked = true;
        }
        if (slots_[i].compare_exchange_strong(cur, sig, std::memory_order_relaxed)) {
          return Claim::kFresh;
        }
        // Lost the slot: `cur` now holds the winner's signature.
      }
      if (cur == sig) return Claim::kPresent;
    }
    return !asked && stored_elsewhere(sig) ? Claim::kPresent : Claim::kFull;
  }

  /// Signatures insert() stored (claim() leaves counting to its caller).
  [[nodiscard]] std::size_t size() const noexcept {
    return table_size_ + (has_zero_.load(std::memory_order_relaxed) ? 1u : 0u);
  }

  /// Slots in the table (a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Bytes held by the slot array (the set's whole footprint; used by the
  /// tiered store's per-shard spill budget).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return capacity() * sizeof(std::uint64_t);
  }

  /// Doubles the table and rehashes every signature into it; the old table
  /// is freed at once. No insert() or claim() may run concurrently.
  void grow() {
    std::vector<std::atomic<std::uint64_t>> old =
        std::exchange(slots_, std::vector<std::atomic<std::uint64_t>>(capacity() * 2));
    for (const std::atomic<std::uint64_t>& slot : old) {
      const std::uint64_t sig = slot.load(std::memory_order_relaxed);
      if (sig != kEmpty) slots_[empty_slot_for(sig)].store(sig, std::memory_order_relaxed);
    }
  }

  /// Appends every stored signature (including an aside-tracked zero) to
  /// `out`, unsorted; the set is unchanged. With clear(), the spill
  /// primitive of the tiered store: it writes the copy out first and
  /// clears the table only once the copy is safe.
  void copy_into(std::vector<std::uint64_t>& out) const {
    for (const std::atomic<std::uint64_t>& slot : slots_) {
      const std::uint64_t sig = slot.load(std::memory_order_relaxed);
      if (sig != kEmpty) out.push_back(sig);
    }
    if (has_zero_.load(std::memory_order_relaxed)) out.push_back(kEmpty);
  }

  /// Empties the set in place: the table keeps its capacity (a spilled
  /// shard refills the table it already has rather than regrowing one).
  /// No insert() or claim() may run concurrently.
  void clear() noexcept {
    for (std::atomic<std::uint64_t>& slot : slots_) slot.store(kEmpty, std::memory_order_relaxed);
    table_size_ = 0;
    has_zero_.store(false, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kInitialCap = 1024;  // power of two

  [[nodiscard]] static std::size_t probe_start(std::uint64_t sig, std::size_t mask) noexcept {
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 17) & mask;
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::uint64_t load(std::size_t i) const noexcept {
    return slots_[i].load(std::memory_order_relaxed);
  }
  /// First empty slot on `sig`'s probe path (single writer).
  [[nodiscard]] std::size_t empty_slot_for(std::uint64_t sig) const noexcept {
    const std::size_t m = mask();
    std::size_t i = probe_start(sig, m);
    while (load(i) != kEmpty) i = (i + 1) & m;
    return i;
  }

  /// Atomic words (value-initialized to kEmpty), so that claim() can CAS
  /// them; the single-writer paths use relaxed loads and stores.
  std::vector<std::atomic<std::uint64_t>> slots_;
  std::size_t table_size_ = 0;  ///< slots insert() occupied (excludes the aside zero)
  std::atomic<bool> has_zero_{false};
};

}  // namespace efd
