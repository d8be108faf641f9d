// Tiered out-of-core signature dedup store (DESIGN.md 4f): the one store
// every exploration sweep inserts into, at any thread count.
//
// The exploration dedup set used to be the RAM ceiling of every hierarchy
// sweep: 10⁸–10⁹ visited signatures at 8 bytes each (plus hash-table slack)
// exhaust memory long before the schedule tree is covered, so E9/E14-family
// experiments could only report "N+" lower bounds. This store keeps the hot
// dedup traffic in memory and pushes the long tail to disk:
//
//   tier 0  per-thread recent-signature cache: a direct-mapped array of
//           signatures the thread recently proved present, held in the
//           thread's slot of the store and written by no other thread. A
//           hit answers "duplicate" without probing a shard's (large)
//           table. Only definitely-inserted signatures enter the cache, so
//           a hit can never lose a state.
//   tier 1  64 FlatSigSet shards: the authoritative in-memory set, with an
//           optional per-shard byte budget. Every shard inserts without a
//           lock (a CAS on the table slot), budgeted or not.
//   tier 2  DiskTier: per shard, a bloom prefilter in front of mmap'd
//           sorted runs. A shard whose doubled table would not fit its
//           budget spills instead of growing: the table is sorted, appended
//           as a run to the shard's one spill file and mapped, and only
//           then emptied (it keeps its capacity); runs are merged (and the
//           bloom rebuilt) whenever a shard accumulates kMergeRuns of them.
//           Because a signature is only inserted into tier 1 after missing
//           tier 2, the runs of one shard are DISJOINT sorted arrays:
//           merging never needs to dedup, and the store's total size is the
//           plain sum of tier sizes.
//
// First-insert-wins is preserved exactly. Racing inserts of one signature
// meet at the same first empty slot and exactly one CAS succeeds; the
// probe of the disk tier runs between the table probe and that CAS, and a
// grow or a spill waits for the inserts in flight, so no spill moves the
// table or the runs under one. So the clean-sweep state counts are
// thread-count-invariant with or without the disk tier. The default config
// (no budget, no disk tier) is tier 0 over unbudgeted shards; with a byte
// budget but no disk tier the store latches mem_exhausted() and the sweep
// reports a lower bound. Semantic counters are identical across all store
// shapes, and each inserting thread counts its own traffic in its slot, so
// the per-tier counts are exact at any thread count. A thread past the
// slot count has no slot: it inserts under the shard lock, with no tier 0.
//
// A shard's spill file is unlinked as soon as it is created, so a crash can
// never leak one, and a store holds at most one spill descriptor per shard;
// the per-store spill directory (created lazily under
// DedupConfig::spill_dir, else $TMPDIR, else /tmp) is removed on
// destruction.
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

/// Configuration of one dedup store. Default-constructed = unbudgeted
/// in-memory store with no disk tier. Only the caller sets it: no
/// environment variable reaches a store.
struct DedupConfig {
  bool disk_tier = false;            ///< spill overflowing shards to disk
  std::size_t mem_budget_bytes = 0;  ///< total in-memory cap; 0 = unlimited
  std::string spill_dir;             ///< root for spill files; "" = $TMPDIR, else /tmp
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
  std::int64_t spills = 0;        ///< shard tables spilled to disk
  std::int64_t spilled_sigs = 0;  ///< signatures moved to disk in total
  std::int64_t spill_bytes = 0;   ///< bytes spilled (merges rewrite runs uncounted)
  std::int64_t merges = 0;        ///< per-shard run merges
};

/// Tier 2: per-shard bloom prefilter + mmap'd disjoint sorted runs, kept
/// in one spill file per shard. A shard's probes only read its cold state;
/// its spills change it, and TieredSigSet runs a spill under that shard's
/// mutex once no insert into the shard is in flight, so per-shard cold
/// state needs no further synchronization.
class DiskTier {
 public:
  /// `dir_root`: where the (lazily created, mkdtemp-named) spill directory
  /// goes; $TMPDIR, else /tmp, when empty.
  explicit DiskTier(std::string dir_root);
  ~DiskTier();
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// What probe() found: the shard has no runs yet, the bloom ruled the
  /// signature out, the runs lack it, or a run holds it.
  enum class Probe { kNoRuns, kBloomSkip, kMiss, kHit };
  /// Looks `sig` up in the shard's runs, newest first. Changes nothing, so
  /// probes of one shard may run concurrently with each other.
  [[nodiscard]] Probe probe(std::size_t shard, std::uint64_t sig) const noexcept;
  /// Appends the table's signatures, sorted, as one run to the shard's
  /// spill file and maps it; only then clears the table, which keeps its
  /// capacity. The kMergeRuns-th run is instead merged with the shard's
  /// runs into one run in a fresh file. Throws std::runtime_error
  /// ("diskset: ...") if the run's file cannot be created or the run
  /// cannot be written or mapped; the table and the runs are then as they
  /// were.
  void spill(std::size_t shard, FlatSigSet& set);

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
  struct Shard {
    Bloom bloom;
    std::vector<Run> runs;
    std::size_t spilled = 0;             ///< signatures across all runs
    int fd = -1;                         ///< the (unlinked) spill file; -1 before the first spill
    std::size_t end = 0;                 ///< page-aligned offset where the next run goes
    std::vector<std::uint64_t> scratch;  ///< spill/merge buffer (reused)
  };

  int create_file(std::size_t shard);
  static Run write_run(int fd, std::size_t offset, const std::vector<std::uint64_t>& sigs,
                       std::size_t shard);
  static void drop_run(Run& r) noexcept;
  void merge_runs(Shard& s, std::size_t shard);

  std::string dir_root_;
  mutable std::mutex dir_mu_;  ///< guards lazy creation of dir_ across shards
  std::string dir_;
  std::atomic<std::uint64_t> file_seq_{0};
  std::vector<Shard> shards_;

  std::atomic<std::int64_t> spills_{0};
  std::atomic<std::int64_t> spilled_sigs_{0};
  std::atomic<std::int64_t> spill_bytes_{0};
  std::atomic<std::int64_t> merges_{0};
};

/// The calling thread's slot index. A thread takes the lowest free index on
/// its first call and frees it when it exits, so the threads alive at one
/// moment hold distinct indices, all below the most calling threads ever
/// alive at once. A TieredSigSet gives the thread with index i its slot i;
/// a thread whose index is past TieredSigSet::kThreadSlots has no slot, so
/// it has no tier 0 and inserts under the shard lock.
std::size_t thread_slot();

/// The dedup store: tier 0 in each inserting thread's slot, in front of 64
/// cache-line-padded FlatSigSet shards keyed by a mixed shard index, which
/// overflow into a DiskTier when configured. insert() is first-insert-wins
/// and thread-safe; which inserts report fresh is IDENTICAL to a flat
/// in-memory set on every workload (the tiers only change where duplicates
/// are detected and where memory lives), which is what makes the parallel
/// explorers' clean-sweep state counts thread-count-invariant (see
/// DESIGN.md, "Exploration engine" and 4f).
///
/// A thread with a slot first looks the signature up in its tier-0 array,
/// allocated on the slot's first insert and kept, with the slot, for the
/// store's lifetime. On a miss the shard inserts without a lock. The thread
/// announces which shard it is inside (a word in its own slot), probes the
/// table, on a miss probes the shard's disk tier (if any), and claims the
/// signature's slot with one CAS (FlatSigSet::claim), so a first insert
/// writes only that slot's cache line and the thread's own. Making room
/// takes the shard lock, raises the shard's flag and waits until every
/// announced insert into the shard has left; then it doubles the table, or,
/// when the doubled table would not fit the shard's byte budget, spills it
/// into the disk tier (or, with no disk tier, latches mem_exhausted() and
/// doubles it). An inserter that sees the flag waits on the lock and
/// retries. A thread adds its first inserts into a shard to the shard's
/// load count in batches of capacity/1024, so the shared count is rarely
/// written, and a shard makes room at a 0.7 load factor, at a full probe
/// path, or when an insert leaves its table above the budget; a shard with
/// one inserting thread makes room at the insert FlatSigSet::insert would
/// grow at. Threads without a slot do the same under the shard lock, which
/// excludes making room.
class TieredSigSet {
 public:
  static constexpr std::size_t kShards = 64;
  /// Per-thread slots of one store: tier 0 and the lock-free inserters'
  /// announcements and counters. Threads past this many take the locked
  /// fallback.
  static constexpr std::size_t kThreadSlots = 64;

  /// The default config is unbudgeted in-memory shards. With a byte budget,
  /// a shard whose doubled table would not fit its share spills into the
  /// disk tier instead of growing, or, with no disk tier, the store latches
  /// mem_exhausted() so the sweep can stop and report a lower bound instead
  /// of growing without bound.
  explicit TieredSigSet(const DedupConfig& cfg = {});

  /// True iff `sig` was never inserted before, in any tier (first insert
  /// wins). Thread-safe. Throws what a spill throws; the signature is then
  /// stored and counted, and nothing stored before is lost.
  bool insert(std::uint64_t sig);

  /// Signatures ever first-inserted (in-memory + spilled): the sum of the
  /// slots' first-insert counts. Each count only grows (a spill clears a
  /// shard's table but never resets a count, and a recycled slot keeps its
  /// count), so successive reads from one thread never go backwards, and
  /// once the inserting threads are joined the sum is exact.
  [[nodiscard]] std::size_t size() const noexcept { return sum(&Slot::first_inserts); }

  /// True once a shard's doubled table would not fit its byte budget with
  /// no disk tier to spill into: the sweep's dedup coverage is no longer
  /// exhaustive.
  [[nodiscard]] bool mem_exhausted() const noexcept {
    return mem_exhausted_.load(std::memory_order_relaxed);
  }

  /// Per-tier traffic, summed over the slots; exact once the inserters are
  /// joined.
  [[nodiscard]] TierStats tier_stats() const;
  /// Current spill directory ("" when the disk tier is off or never spilled).
  [[nodiscard]] std::string spill_dir() const { return disk_ ? disk_->dir() : std::string(); }

  /// The shard `sig` lives in.
  static std::size_t shard_of(std::uint64_t sig) noexcept {
    // Fibonacci mix so consecutive sigs don't pile onto one stripe.
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 58) % kShards;
  }

 private:
  /// Signatures in one slot's tier-0 array (a power of two: the index is a
  /// mask).
  static constexpr std::size_t kRecentSlots = std::size_t{1} << 12;

  /// One shard, padded to whole cache lines so that inserts into
  /// neighbouring shards never contend for a line. Lock-free inserters
  /// only read its first line (the table's address and size, the flag and
  /// the count of make-room passes).
  struct alignas(kCacheLineBytes) Shard {
    FlatSigSet set;  ///< flat probing set: no node alloc per insert
    /// Raised by a thread making room (holding `mu`) until it is done.
    std::atomic<bool> making_room{false};
    /// Make-room passes so far (grows and spills; a spill keeps the
    /// capacity, so only this count tells that another thread made room).
    std::atomic<std::size_t> rooms{0};
    /// Guards making room and the locked inserts.
    alignas(kCacheLineBytes) std::mutex mu;
    /// First inserts that count toward the load factor: lock-free ones
    /// arrive in per-thread batches, locked ones one at a time.
    std::atomic<std::size_t> filled{0};
  };

  /// One thread's slot; only its owner writes it. The counters' owner adds
  /// with a plain load and store; shared_ (threads without a slot) adds
  /// atomically. A slot recycled to a new thread keeps its counts and its
  /// tier-0 array: every entry is a signature this store holds, and the
  /// slot registry's lock orders the old owner's writes before the new
  /// owner's reads.
  struct alignas(kCacheLineBytes) Slot {
    /// Shard index + 1 while the owner is inside a lock-free insert, else 0.
    std::atomic<std::size_t> inside{0};
    std::atomic<std::size_t> first_inserts{0};
    std::atomic<std::size_t> recent_hits{0};  ///< duplicates tier 0 answered
    std::atomic<std::size_t> shard_hits{0};   ///< duplicates a table or a run answered
    std::atomic<std::size_t> cold_probes{0};
    std::atomic<std::size_t> bloom_skips{0};
    std::atomic<std::size_t> cold_hits{0};
    /// Tier 0: kRecentSlots signatures the owner recently proved present,
    /// direct-mapped (0 = empty); null until the owner's first insert.
    std::unique_ptr<std::uint64_t[]> recent;
    /// Per shard, the owner's lock-free first inserts not yet added to
    /// Shard::filled, and the count it read when it last added some
    /// (plain: only the owner reads them).
    std::uint32_t pending[kShards] = {};
    std::size_t seen[kShards] = {};
  };

  [[nodiscard]] std::size_t sum(std::atomic<std::size_t> Slot::*counter) const noexcept {
    std::size_t n = (shared_.*counter).load(std::memory_order_relaxed);
    for (const Slot& t : slots_) n += (t.*counter).load(std::memory_order_relaxed);
    return n;
  }

  bool insert_lock_free(Shard& s, std::size_t idx, std::uint64_t sig, Slot& own);
  bool insert_locked(Shard& s, std::size_t idx, std::uint64_t sig);
  bool in_cold(std::size_t idx, std::uint64_t sig, Slot& counts);
  [[nodiscard]] bool over_budget(std::size_t capacity) const noexcept;
  void make_room_from(Shard& s, std::size_t idx, std::size_t seen_rooms);
  void make_room_locked(Shard& s, std::size_t idx);

  Shard shards_[kShards];
  Slot slots_[kThreadSlots];
  Slot shared_;                     ///< counters of the threads without a slot
  std::unique_ptr<DiskTier> disk_;  ///< overflow target; null = latch exhaustion
  std::size_t shard_budget_ = 0;    ///< bytes per shard; 0 = unlimited
  alignas(kCacheLineBytes) std::atomic<bool> mem_exhausted_{false};
};

/// perfbench's layer probes (perfbench/layers.cpp) still call the store by
/// the name of its former shard layer. perfbench changes only with the
/// benchmark itself, so the name stays until then; nothing else uses it.
using ShardedSigSet = TieredSigSet;

}  // namespace efd
