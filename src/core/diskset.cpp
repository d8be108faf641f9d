#include "core/diskset.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/hash.hpp"

namespace efd {
namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("diskset: " + what + ": " + std::strerror(errno));
}

std::string default_dir_root() {
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') return t;
  return "/tmp";
}

std::atomic<std::uint64_t> g_store_nonce{1};

/// Slots of one tier-0 cache (a power of two: the index is a mask).
constexpr std::size_t kRecentSlots = std::size_t{1} << 12;

/// Tier-0 cache: one direct-mapped signature array per (thread, store).
/// `owner` is the owning store's nonce — a thread that alternates between
/// stores simply re-seeds the array. Only signatures that are KNOWN inserted
/// are written here, so a hit is always a true duplicate. Signature 0 is
/// never cached (0 marks an empty slot).
struct RecentCache {
  std::uint64_t owner = 0;
  std::vector<std::uint64_t> slots;
};
thread_local RecentCache t_recent;

/// The process-wide table of thread slot indices behind thread_slot().
class SlotRegistry {
 public:
  /// The lowest free index.
  std::size_t claim() {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = std::find(taken_.begin(), taken_.end(), false);
    const auto index = static_cast<std::size_t>(it - taken_.begin());
    if (it == taken_.end()) {
      taken_.push_back(true);
    } else {
      *it = true;
    }
    return index;
  }
  void release(std::size_t index) {
    std::lock_guard<std::mutex> lk(mu_);
    taken_[index] = false;
  }

 private:
  std::mutex mu_;
  std::vector<bool> taken_;  ///< guarded by mu_
};

/// Never destroyed: a thread may exit, and release its index, after the
/// static objects are gone.
SlotRegistry& slot_registry() {
  static SlotRegistry* const registry = new SlotRegistry;
  return *registry;
}

/// Holds the calling thread's index from its first thread_slot() call until
/// the thread exits. The registry's lock orders one owner's last write to
/// its slots before the next owner's first.
struct ThreadSlot {
  std::size_t index = slot_registry().claim();
  ThreadSlot() = default;
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
  ~ThreadSlot() { slot_registry().release(index); }
};
thread_local ThreadSlot t_slot;

/// Adds one to a slot counter: its owner's plain load and store, or an
/// atomic add on the shared slot, which many threads write.
void bump_slot(std::atomic<std::size_t>& counter, bool shared) noexcept {
  if (shared) {
    counter.fetch_add(1, std::memory_order_relaxed);
  } else {
    bump_single_writer(counter);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DiskTier::Bloom — two-probe bloom filter at ~16 bits per expected key
// (false-positive rate ≈ 1.5%; every positive is verified against the runs,
// so a false positive costs a binary search, never a wrong answer).
// ---------------------------------------------------------------------------

void DiskTier::Bloom::reset(std::size_t expected_keys) {
  std::size_t bits = 1024;
  while (bits < expected_keys * 16) bits *= 2;
  words.assign(bits / 64, 0);
}

void DiskTier::Bloom::add(std::uint64_t sig) noexcept {
  const std::uint64_t h = splitmix64_finalize(sig);
  const std::uint64_t mask = words.size() * 64 - 1;
  const std::uint64_t b1 = h & mask;
  const std::uint64_t b2 = (h >> 32 | h << 32) & mask;
  words[b1 / 64] |= 1ULL << (b1 % 64);
  words[b2 / 64] |= 1ULL << (b2 % 64);
}

bool DiskTier::Bloom::maybe(std::uint64_t sig) const noexcept {
  if (words.empty()) return false;
  const std::uint64_t h = splitmix64_finalize(sig);
  const std::uint64_t mask = words.size() * 64 - 1;
  const std::uint64_t b1 = h & mask;
  const std::uint64_t b2 = (h >> 32 | h << 32) & mask;
  return (words[b1 / 64] >> (b1 % 64) & 1) != 0 && (words[b2 / 64] >> (b2 % 64) & 1) != 0;
}

// ---------------------------------------------------------------------------
// DiskTier
// ---------------------------------------------------------------------------

DiskTier::DiskTier(std::string dir_root)
    : dir_root_(dir_root.empty() ? default_dir_root() : std::move(dir_root)),
      shards_(ShardedSigSet::kShards) {}

DiskTier::~DiskTier() {
  for (Shard& s : shards_) {
    for (Run& r : s.runs) drop_run(r);
  }
  if (!dir_.empty()) ::rmdir(dir_.c_str());  // runs are unlinked at mmap time
}

std::string DiskTier::dir() const {
  std::lock_guard<std::mutex> lk(dir_mu_);
  return dir_;
}

void DiskTier::ensure_dir() {
  std::lock_guard<std::mutex> lk(dir_mu_);
  if (!dir_.empty()) return;
  std::string tmpl = dir_root_ + "/efd-dedup-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) die("mkdtemp " + tmpl);
  dir_.assign(buf.data());
}

/// Writes `sigs` (sorted, distinct) as one run file, maps it read-only and
/// unlinks it immediately — the mapping keeps the data alive, the directory
/// entry never outlives a crash.
DiskTier::Run DiskTier::write_run(const std::vector<std::uint64_t>& sigs, std::size_t shard) {
  ensure_dir();
  const std::string path = dir_ + "/shard" + std::to_string(shard) + "-run" +
                           std::to_string(run_seq_.fetch_add(1, std::memory_order_relaxed)) +
                           ".sigs";
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) die("open " + path);
  const auto* bytes = reinterpret_cast<const char*>(sigs.data());
  std::size_t total = sigs.size() * sizeof(std::uint64_t);
  std::size_t off = 0;
  while (off < total) {
    const ssize_t n = ::write(fd, bytes + off, total - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(path.c_str());
      die("write " + path);
    }
    off += static_cast<std::size_t>(n);
  }
  Run r;
  r.bytes = total;
  r.count = sigs.size();
  r.map = ::mmap(nullptr, total, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  ::unlink(path.c_str());
  if (r.map == MAP_FAILED) die("mmap " + path);
  r.data = static_cast<const std::uint64_t*>(r.map);
  return r;
}

void DiskTier::drop_run(Run& r) noexcept {
  if (r.map != nullptr && r.map != MAP_FAILED) ::munmap(r.map, r.bytes);
  r = Run{};
}

bool DiskTier::contains(std::size_t shard, std::uint64_t sig) {
  Shard& s = shards_[shard];
  if (s.runs.empty()) return false;
  bump_single_writer(s.cold_probes);
  if (!s.bloom.maybe(sig)) {
    bump_single_writer(s.bloom_skips);
    return false;
  }
  // Newest-first: DFS dedup hits skew heavily toward recent spills.
  for (auto it = s.runs.rbegin(); it != s.runs.rend(); ++it) {
    if (std::binary_search(it->data, it->data + it->count, sig)) {
      bump_single_writer(s.cold_hits);
      return true;
    }
  }
  return false;
}

void DiskTier::spill(std::size_t shard, FlatSigSet& set) {
  Shard& s = shards_[shard];
  s.scratch.clear();
  set.drain_into(s.scratch);
  if (s.scratch.empty()) return;
  std::sort(s.scratch.begin(), s.scratch.end());
  Run r = write_run(s.scratch, shard);
  if (s.runs.empty()) s.bloom.reset(s.scratch.size() * 4);
  for (const std::uint64_t sig : s.scratch) s.bloom.add(sig);
  s.runs.push_back(r);
  s.spilled += s.scratch.size();
  spills_.fetch_add(1, std::memory_order_relaxed);
  spilled_sigs_.fetch_add(static_cast<std::int64_t>(s.scratch.size()),
                          std::memory_order_relaxed);
  spill_bytes_.fetch_add(static_cast<std::int64_t>(r.bytes), std::memory_order_relaxed);
  if (s.runs.size() >= kMergeRuns) merge_shard(s, shard);
}

/// Compacts a shard's runs into one and re-sizes the bloom for the merged
/// population (an in-place bloom saturates as spills accumulate; the merge
/// checkpoint is where it is rebuilt at the target bits-per-key). Runs of
/// one shard are disjoint — a signature is only ever inserted after missing
/// the cold tier — so this is a pure k-way merge without dedup.
void DiskTier::merge_shard(Shard& s, std::size_t shard_idx) {
  s.scratch.clear();
  s.scratch.reserve(s.spilled);
  for (const Run& r : s.runs) s.scratch.insert(s.scratch.end(), r.data, r.data + r.count);
  std::sort(s.scratch.begin(), s.scratch.end());
  Run merged = write_run(s.scratch, shard_idx);
  for (Run& r : s.runs) drop_run(r);
  s.runs.clear();
  s.runs.push_back(merged);
  s.bloom.reset(s.scratch.size());
  for (const std::uint64_t sig : s.scratch) s.bloom.add(sig);
  merges_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ShardedSigSet
// ---------------------------------------------------------------------------

std::size_t thread_slot() { return t_slot.index; }

bool ShardedSigSet::insert(std::uint64_t sig) {
  const std::size_t idx = shard_of(sig);
  Shard& s = shards_[idx];
  const std::size_t t = thread_slot();
  const bool slotted = t < kThreadSlots;
  bool fresh = false;
  if (cold_ != nullptr || shard_budget_ != 0) {
    fresh = insert_budgeted(s, idx, sig);
  } else if (slotted) {
    fresh = insert_lock_free(s, idx, sig, slots_[t]);
  } else {
    fresh = insert_locked(s, idx, sig);
  }
  Slot& counts = slotted ? slots_[t] : shared_;
  bump_slot(fresh ? counts.first_inserts : counts.duplicates, !slotted);
  return fresh;
}

void ShardedSigSet::count_cached_hit() {
  const std::size_t t = thread_slot();
  if (t < kThreadSlots) {
    bump_slot(slots_[t].cached_hits, false);
  } else {
    bump_slot(shared_.cached_hits, true);
  }
}

/// The announce-then-check pair below and the grower's raise-then-scan pair
/// in grow_locked are both sequentially consistent, so at least one side
/// sees the other: either this thread sees the flag and backs off, or the
/// grower sees the announcement and waits for it to be withdrawn. The
/// withdrawal is a release store, so the grower's rehash sees every slot
/// this claim wrote; the flag is lowered with a release store after the new
/// table is in place, so the next claim reads the new table.
bool ShardedSigSet::insert_lock_free(Shard& s, std::size_t idx, std::uint64_t sig, Slot& own) {
  for (;;) {
    own.inside.store(idx + 1);
    if (s.growing.load()) {
      own.inside.store(0, std::memory_order_release);
      const std::lock_guard<std::mutex> wait_for_grower(s.mu);
      continue;
    }
    const std::size_t capacity = s.set.capacity();
    const FlatSigSet::Claim c = s.set.claim(sig);
    own.inside.store(0, std::memory_order_release);
    if (c == FlatSigSet::Claim::kPresent) return false;
    if (c == FlatSigSet::Claim::kFull) {
      grow_from(s, idx, capacity);
      continue;
    }
    // Fresh. Batch the load count: at most capacity/1024 per thread and
    // shard go uncounted, so a shard's load overshoots 0.7 by at most
    // kThreadSlots/1024 before it grows (and a full probe path grows it
    // regardless). The batch is added early once this thread's own view
    // of the count reaches the load factor, so a shard with one inserting
    // thread grows at the very insert FlatSigSet::insert would grow at.
    std::uint32_t& pending = own.pending[idx];
    ++pending;
    if (pending >= std::max<std::size_t>(capacity >> 10, 1) ||
        FlatSigSet::at_load_limit(own.seen[idx] + pending, capacity)) {
      const std::size_t filled = s.filled.fetch_add(pending, std::memory_order_relaxed) + pending;
      own.seen[idx] = filled;
      pending = 0;
      if (FlatSigSet::at_load_limit(filled, capacity)) grow_from(s, idx, capacity);
    }
    return true;
  }
}

/// A thread without a slot: the shard lock excludes growth, and the CAS
/// in claim() orders this insert against the lock-free ones.
bool ShardedSigSet::insert_locked(Shard& s, std::size_t idx, std::uint64_t sig) {
  const std::lock_guard<std::mutex> lk(s.mu);
  for (;;) {
    const FlatSigSet::Claim c = s.set.claim(sig);
    if (c == FlatSigSet::Claim::kPresent) return false;
    if (c == FlatSigSet::Claim::kFull) {
      grow_locked(s, idx);
      continue;
    }
    const std::size_t filled = s.filled.fetch_add(1, std::memory_order_relaxed) + 1;
    if (FlatSigSet::at_load_limit(filled, s.set.capacity())) grow_locked(s, idx);
    return true;
  }
}

/// Every insert into a budgeted set holds the shard lock, so the table has
/// one writer at a time and the whole probe sequence (table, then the
/// disk tier) is atomic with the insert and the spill.
bool ShardedSigSet::insert_budgeted(Shard& s, std::size_t idx, std::uint64_t sig) {
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.set.contains(sig)) return false;
  if (cold_ != nullptr && cold_->contains(idx, sig)) return false;
  s.set.insert(sig);
  if (shard_budget_ != 0 && s.set.bytes() > shard_budget_) {
    if (cold_ != nullptr) {
      cold_->spill(idx, s.set);
    } else {
      mem_exhausted_.store(true, std::memory_order_relaxed);
    }
  }
  return true;
}

/// Grows the shard unless another thread already grew it past the table
/// of `seen_capacity` slots that the caller found too full.
void ShardedSigSet::grow_from(Shard& s, std::size_t idx, std::size_t seen_capacity) {
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.set.capacity() == seen_capacity) grow_locked(s, idx);
}

/// Caller holds s.mu. Lock-free claims that announced themselves before the
/// flag went up finish on the old table, and the rehash copies what they
/// wrote; later ones wait on s.mu and retry on the new table. So a grow
/// neither loses an insert nor lets one signature be claimed twice.
void ShardedSigSet::grow_locked(Shard& s, std::size_t idx) {
  s.growing.store(true);
  for (const Slot& t : slots_) {
    while (t.inside.load() == idx + 1) std::this_thread::yield();
  }
  s.set.grow();
  s.growing.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// TieredSigSet
// ---------------------------------------------------------------------------

namespace {
std::size_t per_shard_budget(const DedupConfig& cfg) noexcept {
  if (cfg.mem_budget_bytes == 0) return 0;
  // Floor at 4 KiB so a tiny test budget still leaves a probe-able table
  // between spills rather than spilling on every insert.
  return std::max<std::size_t>(cfg.mem_budget_bytes / ShardedSigSet::kShards, 4096);
}
}  // namespace

TieredSigSet::TieredSigSet(const DedupConfig& cfg)
    : disk_(cfg.disk_tier ? std::make_unique<DiskTier>(cfg.spill_dir) : nullptr),
      mem_(per_shard_budget(cfg), disk_.get()),
      id_(g_store_nonce.fetch_add(1, std::memory_order_relaxed)) {}

bool TieredSigSet::insert(std::uint64_t sig) {
  RecentCache& rc = t_recent;
  if (rc.owner != id_) {
    rc.owner = id_;
    rc.slots.assign(kRecentSlots, 0);
  }
  const std::size_t slot =
      static_cast<std::size_t>(splitmix64_finalize(sig)) & (kRecentSlots - 1);
  if (sig != 0 && rc.slots[slot] == sig) {
    mem_.count_cached_hit();
    return false;
  }
  const bool fresh = mem_.insert(sig);
  rc.slots[slot] = sig;
  return fresh;
}

TierStats TieredSigSet::tier_stats() const {
  TierStats t;
  t.recent_hits = static_cast<std::int64_t>(mem_.cached_hits());
  if (disk_) {
    t.cold_probes = disk_->cold_probes();
    t.bloom_skips = disk_->bloom_skips();
    t.cold_hits = disk_->cold_hits();
    t.spills = disk_->spills();
    t.spilled_sigs = disk_->spilled_sigs();
    t.spill_bytes = disk_->spill_bytes();
    t.merges = disk_->merges();
  }
  // A duplicate the shards report was found in a table (tier 1) or a run.
  t.mem_hits = std::max<std::int64_t>(0, static_cast<std::int64_t>(mem_.duplicates()) - t.cold_hits);
  return t;
}

}  // namespace efd
