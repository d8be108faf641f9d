// Tiered out-of-core signature dedup store (DESIGN.md 4f): the one store
// every exploration sweep inserts into, at any thread count.
//
// The exploration dedup set used to be the RAM ceiling of every hierarchy
// sweep: 10⁸–10⁹ visited signatures at 8 bytes each (plus hash-table slack)
// exhaust memory long before the schedule tree is covered, so E9/E14-family
// experiments could only report "N+" lower bounds. This store keeps the hot
// dedup traffic in memory and pushes the long tail to disk:
//
//   tier 0  per-thread recent-signature cache — a direct-mapped, completely
//           unsynchronized array of signatures this thread recently proved
//           present. A hit answers "duplicate" with no lock. Only
//           definitely-inserted signatures enter the cache, so a hit can
//           never lose a state.
//   tier 1  ShardedSigSet — the mutex-striped authoritative in-memory set
//           (FlatSigSet shards), with an optional per-shard byte budget.
//   tier 2  DiskTier — per shard, a bloom prefilter in front of mmap'd
//           sorted runs. When a shard crosses its budget it is drained,
//           sorted, written to a run file and dropped from RAM; runs are
//           merged (and the bloom rebuilt) whenever a shard accumulates
//           kMergeRuns of them. Because a signature is only inserted into
//           tier 1 after missing tier 2, the runs of one shard are DISJOINT
//           sorted arrays — merging never needs to dedup, and the store's
//           total size is the plain sum of tier sizes.
//
// First-insert-wins is preserved exactly: the entire probe (mem table →
// bloom → runs) and the insert happen under the owning shard's mutex, so the
// clean-sweep state counts remain thread-count-invariant with the disk tier
// active. The default config (no budget, no disk tier) is tier 0 over
// unbudgeted shards; with a byte budget but no disk tier the store latches
// mem_exhausted() and the sweep reports a lower bound. Semantic counters are
// identical across all store shapes.
//
// Run files are unlinked immediately after mmap, so a crash can never leak
// spill files; the per-store spill directory (created lazily under
// DedupConfig::spill_dir, else $TMPDIR, else /tmp) is removed on destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sigset.hpp"

namespace efd {

/// Cache-line size the concurrent structures pad to, so that counters and
/// flags written by different threads never share a line.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Adds one to a counter that only the holder of its owner's lock writes;
/// other threads may read it concurrently. A plain load and store, because
/// the lock already orders the writers.
template <typename T>
void bump_locked(std::atomic<T>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Configuration of one dedup store. Default-constructed = unbudgeted
/// in-memory store with no disk tier. Only the caller sets it: no
/// environment variable reaches a store.
struct DedupConfig {
  bool disk_tier = false;            ///< spill overflowing shards to disk
  std::size_t mem_budget_bytes = 0;  ///< total in-memory cap; 0 = unlimited
  std::string spill_dir;             ///< root for run files; "" = $TMPDIR, else /tmp
};

/// Per-tier traffic of one store (all counters monotone; snapshot via
/// TieredSigSet::tier_stats). Deterministic only for single-threaded sweeps:
/// which tier answers a duplicate depends on thread interleaving.
struct TierStats {
  std::int64_t recent_hits = 0;   ///< duplicates answered by the tier-0 cache
  std::int64_t mem_hits = 0;      ///< duplicates found in the in-memory shard
  std::int64_t cold_probes = 0;   ///< in-memory misses that consulted tier 2
  std::int64_t bloom_skips = 0;   ///< cold probes settled by the bloom alone
  std::int64_t cold_hits = 0;     ///< duplicates found in an mmap'd run
  std::int64_t spills = 0;        ///< shard drains to disk
  std::int64_t spilled_sigs = 0;  ///< signatures moved to disk in total
  std::int64_t spill_bytes = 0;   ///< bytes written to run files in total
  std::int64_t merges = 0;        ///< per-shard run merges
};

/// Tier 2: per-shard bloom prefilter + mmap'd disjoint sorted runs.
/// All per-shard calls arrive under that shard's ShardedSigSet mutex, so
/// per-shard cold state needs no further synchronization.
class DiskTier {
 public:
  /// `dir_root`: where the (lazily created, mkdtemp-named) spill directory
  /// goes; $TMPDIR, else /tmp, when empty.
  explicit DiskTier(std::string dir_root);
  ~DiskTier();
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// True iff `sig` was spilled to this shard's runs earlier.
  bool contains(std::size_t shard, std::uint64_t sig);
  /// Moves the shard's in-memory contents to a new run (the set is drained
  /// and reset to its initial footprint).
  void spill(std::size_t shard, FlatSigSet& set);

  [[nodiscard]] std::int64_t cold_probes() const noexcept { return sum(&Shard::cold_probes); }
  [[nodiscard]] std::int64_t bloom_skips() const noexcept { return sum(&Shard::bloom_skips); }
  [[nodiscard]] std::int64_t cold_hits() const noexcept { return sum(&Shard::cold_hits); }
  [[nodiscard]] std::int64_t spills() const noexcept { return spills_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t spilled_sigs() const noexcept { return spilled_sigs_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t spill_bytes() const noexcept { return spill_bytes_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t merges() const noexcept { return merges_.load(std::memory_order_relaxed); }
  /// The mkdtemp'd spill directory ("" until the first spill creates it).
  [[nodiscard]] std::string dir() const;

  /// Runs per shard before a merge compacts them into one.
  static constexpr std::size_t kMergeRuns = 8;

 private:
  struct Bloom {
    std::vector<std::uint64_t> words;  ///< power-of-two sized bit array
    void reset(std::size_t expected_keys);
    void add(std::uint64_t sig) noexcept;
    [[nodiscard]] bool maybe(std::uint64_t sig) const noexcept;
  };
  struct Run {
    void* map = nullptr;
    std::size_t bytes = 0;
    const std::uint64_t* data = nullptr;
    std::size_t count = 0;
  };
  /// Padded to whole cache lines: probes of different shards run under
  /// different mutexes and must not write a common line.
  struct alignas(kCacheLineBytes) Shard {
    Bloom bloom;
    std::vector<Run> runs;
    std::size_t spilled = 0;              ///< signatures across all runs
    std::vector<std::uint64_t> scratch;   ///< drain/merge buffer (reused)
    // Probe traffic, written under the shard mutex, summed by the accessors.
    std::atomic<std::int64_t> cold_probes{0};
    std::atomic<std::int64_t> bloom_skips{0};
    std::atomic<std::int64_t> cold_hits{0};
  };

  [[nodiscard]] std::int64_t sum(std::atomic<std::int64_t> Shard::*counter) const noexcept {
    std::int64_t n = 0;
    for (const Shard& s : shards_) n += (s.*counter).load(std::memory_order_relaxed);
    return n;
  }

  void ensure_dir();
  Run write_run(const std::vector<std::uint64_t>& sigs, std::size_t shard);
  static void drop_run(Run& r) noexcept;
  void merge_shard(Shard& s, std::size_t shard_idx);

  std::string dir_root_;
  mutable std::mutex dir_mu_;  ///< guards lazy creation of dir_ across shards
  std::string dir_;
  std::atomic<std::uint64_t> run_seq_{0};
  std::vector<Shard> shards_;

  std::atomic<std::int64_t> spills_{0};
  std::atomic<std::int64_t> spilled_sigs_{0};
  std::atomic<std::int64_t> spill_bytes_{0};
  std::atomic<std::int64_t> merges_{0};
};

/// Tier 1: 64 mutex-striped, cache-line-padded FlatSigSet shards keyed by a
/// mixed shard index, each with its own first-insert count. insert() is
/// first-insert-wins, which is what makes the parallel explorers'
/// clean-sweep state counts thread-count-invariant (see DESIGN.md,
/// "Exploration engine").
class ShardedSigSet {
 public:
  static constexpr std::size_t kShards = 64;

  ShardedSigSet() = default;
  /// Budgeted form: when a shard's table crosses `shard_byte_budget` bytes
  /// after an insert, it is spilled into `cold` — or, with no disk tier,
  /// the set latches mem_exhausted() so the sweep can stop and report a
  /// lower bound instead of growing without bound.
  ShardedSigSet(std::size_t shard_byte_budget, DiskTier* cold)
      : shard_budget_(shard_byte_budget), cold_(cold) {}

  /// True iff `sig` was not present in the shard OR its cold storage (first
  /// insert wins). Thread-safe; the whole probe-insert-spill sequence holds
  /// the shard mutex, which is what keeps clean-sweep counts
  /// thread-count-invariant with the disk tier active.
  bool insert(std::uint64_t sig) {
    const std::size_t idx = shard_of(sig);
    Shard& s = shards_[idx];
    std::lock_guard<std::mutex> lk(s.mu);
    if (cold_ == nullptr && shard_budget_ == 0) {
      const bool fresh = s.set.insert(sig);
      if (fresh) bump_locked(s.inserted);
      return fresh;
    }
    if (s.set.contains(sig)) return false;
    if (cold_ != nullptr && cold_->contains(idx, sig)) return false;
    s.set.insert(sig);
    bump_locked(s.inserted);
    if (shard_budget_ != 0 && s.set.bytes() > shard_budget_) {
      if (cold_ != nullptr) {
        cold_->spill(idx, s.set);
      } else {
        mem_exhausted_.store(true, std::memory_order_relaxed);
      }
    }
    return true;
  }

  /// Signatures ever first-inserted (in-memory + spilled): the sum of the
  /// per-shard first-insert counts. Each count only grows (a spill drains
  /// the shard's table but never resets its count), so successive reads
  /// from one thread never go backwards, and once the inserting threads
  /// are joined the sum is exact. No lock is taken and no insert writes a
  /// line another shard's insert writes.
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.inserted.load(std::memory_order_relaxed);
    return n;
  }

  /// True once any shard crossed its byte budget with no disk tier to spill
  /// into (memory-capped mem-only mode).
  [[nodiscard]] bool mem_exhausted() const noexcept {
    return mem_exhausted_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t shard_of(std::uint64_t sig) noexcept {
    // Fibonacci mix so consecutive sigs don't pile onto one stripe.
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 58) % kShards;
  }

  /// One stripe, padded to whole cache lines so that inserts into
  /// neighbouring shards never contend for a line.
  struct alignas(kCacheLineBytes) Shard {
    std::mutex mu;
    FlatSigSet set;  ///< flat probing set: no node alloc per insert
    /// First inserts into this shard, ever; written only under `mu`, read
    /// lock-free by size().
    std::atomic<std::size_t> inserted{0};
  };
  Shard shards_[kShards];
  std::size_t shard_budget_ = 0;  ///< bytes per shard; 0 = unlimited
  DiskTier* cold_ = nullptr;      ///< overflow target; null = latch exhaustion
  alignas(kCacheLineBytes) std::atomic<bool> mem_exhausted_{false};
};

/// The full tiered store: tier-0 per-thread cache in front of the budgeted
/// ShardedSigSet, which overflows into a DiskTier when configured. insert()
/// is first-insert-wins and thread-safe; semantics (which inserts report
/// fresh) are IDENTICAL to a flat in-memory set on every workload — the
/// tiers only change where duplicates are detected and where memory lives.
class TieredSigSet {
 public:
  explicit TieredSigSet(const DedupConfig& cfg);

  /// True iff `sig` was never inserted before (across all tiers).
  bool insert(std::uint64_t sig);

  /// Unique signatures ever inserted (atomic; never torn).
  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  /// True once the in-memory budget was exceeded with no disk tier to
  /// spill into: the sweep's dedup coverage is no longer exhaustive.
  [[nodiscard]] bool mem_exhausted() const noexcept { return mem_.mem_exhausted(); }

  [[nodiscard]] TierStats tier_stats() const;
  /// Current spill directory ("" when the disk tier is off or never spilled).
  [[nodiscard]] std::string spill_dir() const { return disk_ ? disk_->dir() : std::string(); }

 private:
  std::unique_ptr<DiskTier> disk_;  ///< null when the disk tier is off
  ShardedSigSet mem_;
  std::uint64_t id_;  ///< nonce binding tier-0 TLS caches to this store

  /// Duplicate counters of one thread stripe, on a cache line of its own: a
  /// thread only bumps its own stripe and tier_stats() sums them, so
  /// counting a duplicate never writes a line another inserter writes.
  struct alignas(kCacheLineBytes) HitCell {
    std::atomic<std::int64_t> recent_hits{0};
    /// Duplicates reported by the locked path (tier 1 or tier 2);
    /// tier_stats derives mem_hits as dup_returns - cold_hits.
    std::atomic<std::int64_t> dup_returns{0};
  };
  static constexpr std::size_t kHitStripes = 16;
  HitCell hits_[kHitStripes];
};

}  // namespace efd
