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

/// `bytes` rounded up to whole pages: the runs in a spill file start at
/// page boundaries, so that each can be mapped at its own offset.
std::size_t page_aligned(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

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

/// Adds one to a counter that one writer at a time updates (the holder of
/// its owner's lock, or the thread that owns its slot); other threads may
/// read it concurrently. A plain load and store, because the lock or the
/// ownership already orders the writers.
void bump_single_writer(std::atomic<std::size_t>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

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
      shards_(TieredSigSet::kShards) {}

DiskTier::~DiskTier() {
  for (Shard& s : shards_) {
    for (Run& r : s.runs) drop_run(r);
    if (s.fd >= 0) ::close(s.fd);
  }
  if (!dir_.empty()) ::rmdir(dir_.c_str());  // spill files are unlinked at creation
}

std::string DiskTier::dir() const {
  std::lock_guard<std::mutex> lk(dir_mu_);
  return dir_;
}

/// Creates a spill file for `shard` in the store's directory (made on the
/// first call) and unlinks it at once: the descriptor keeps the data alive,
/// the directory entry never outlives a crash.
int DiskTier::create_file(std::size_t shard) {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(dir_mu_);
    if (dir_.empty()) {
      std::string tmpl = dir_root_ + "/efd-dedup-XXXXXX";
      std::vector<char> buf(tmpl.begin(), tmpl.end());
      buf.push_back('\0');
      if (::mkdtemp(buf.data()) == nullptr) die("mkdtemp " + tmpl);
      dir_.assign(buf.data());
    }
    path = dir_;
  }
  path += "/shard" + std::to_string(shard) + "-" +
          std::to_string(file_seq_.fetch_add(1, std::memory_order_relaxed)) + ".sigs";
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC, 0600);
  if (fd < 0) die("open " + path);
  ::unlink(path.c_str());
  return fd;
}

/// Writes `sigs` (sorted, distinct) at `offset` (page-aligned) of the file
/// `fd` and maps them read-only.
DiskTier::Run DiskTier::write_run(int fd, std::size_t offset,
                                  const std::vector<std::uint64_t>& sigs, std::size_t shard) {
  const auto* bytes = reinterpret_cast<const char*>(sigs.data());
  const std::size_t total = sigs.size() * sizeof(std::uint64_t);
  for (std::size_t done = 0; done < total;) {
    const ssize_t n = ::pwrite(fd, bytes + done, total - done, static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) die("write spill file of shard " + std::to_string(shard));
    done += static_cast<std::size_t>(n);
  }
  Run r;
  r.map = ::mmap(nullptr, total, PROT_READ, MAP_SHARED, fd, static_cast<off_t>(offset));
  if (r.map == MAP_FAILED) die("mmap spill file of shard " + std::to_string(shard));
  r.bytes = total;
  r.data = static_cast<const std::uint64_t*>(r.map);
  r.count = sigs.size();
  return r;
}

void DiskTier::drop_run(Run& r) noexcept {
  if (r.map != nullptr) ::munmap(r.map, r.bytes);
  r = Run{};
}

DiskTier::Probe DiskTier::probe(std::size_t shard, std::uint64_t sig) const noexcept {
  const Shard& s = shards_[shard];
  if (s.runs.empty()) return Probe::kNoRuns;
  if (!s.bloom.maybe(sig)) return Probe::kBloomSkip;
  // Newest-first: DFS dedup hits skew heavily toward recent spills.
  for (auto it = s.runs.rbegin(); it != s.runs.rend(); ++it) {
    if (std::binary_search(it->data, it->data + it->count, sig)) return Probe::kHit;
  }
  return Probe::kMiss;
}

void DiskTier::spill(std::size_t shard, FlatSigSet& set) {
  Shard& s = shards_[shard];
  s.scratch.clear();
  set.copy_into(s.scratch);
  const std::size_t n = s.scratch.size();
  if (n == 0) return;
  const bool merge = s.runs.size() + 1 >= kMergeRuns;
  if (merge) {
    s.scratch.reserve(n + s.spilled);
    for (const Run& r : s.runs) s.scratch.insert(s.scratch.end(), r.data, r.data + r.count);
  }
  std::sort(s.scratch.begin(), s.scratch.end());
  if (merge) {
    merge_runs(s, shard);
  } else {
    if (s.fd < 0) s.fd = create_file(shard);
    const Run r = write_run(s.fd, s.end, s.scratch, shard);
    s.end += page_aligned(r.bytes);
    if (s.runs.empty()) s.bloom.reset(n * 4);
    s.runs.push_back(r);
  }
  for (const std::uint64_t sig : s.scratch) s.bloom.add(sig);
  // The signatures are on disk and mapped: only now may the table forget them.
  set.clear();
  s.spilled += n;
  spills_.fetch_add(1, std::memory_order_relaxed);
  spilled_sigs_.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  spill_bytes_.fetch_add(static_cast<std::int64_t>(n * sizeof(std::uint64_t)),
                         std::memory_order_relaxed);
}

/// Replaces a shard's runs with one run of `s.scratch` (their signatures
/// and the spilling table's, sorted) and re-sizes the bloom for the merged
/// population (an in-place bloom saturates as spills accumulate; the merge
/// checkpoint is where it is rebuilt at the target bits-per-key; spill()
/// then adds every signature). Runs of one shard are disjoint — a
/// signature is only ever inserted after missing the cold tier — so the
/// merge needs no dedup. The merged run goes to a fresh file; the old runs
/// are unmapped and their file closed (freeing its blocks) only once it is
/// mapped, so a failed merge changes nothing. Later spills append to the
/// new file.
void DiskTier::merge_runs(Shard& s, std::size_t shard) {
  const int fd = create_file(shard);
  Run merged;
  try {
    merged = write_run(fd, 0, s.scratch, shard);
  } catch (...) {
    ::close(fd);
    throw;
  }
  for (Run& r : s.runs) drop_run(r);
  ::close(s.fd);
  s.fd = fd;
  s.end = page_aligned(merged.bytes);
  s.runs.assign(1, merged);
  s.bloom.reset(s.scratch.size());
  merges_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TieredSigSet
// ---------------------------------------------------------------------------

std::size_t thread_slot() { return t_slot.index; }

namespace {
std::size_t per_shard_budget(const DedupConfig& cfg) noexcept {
  if (cfg.mem_budget_bytes == 0) return 0;
  // Floored at 4 KiB. A fresh shard table is already 8 KiB, so a floored
  // shard is over its budget from its first insert: with a disk tier it
  // spills on every first insert, without one the first insert latches the
  // cap (test_dedup relies on both).
  return std::max<std::size_t>(cfg.mem_budget_bytes / TieredSigSet::kShards, 4096);
}
}  // namespace

TieredSigSet::TieredSigSet(const DedupConfig& cfg)
    : disk_(cfg.disk_tier ? std::make_unique<DiskTier>(cfg.spill_dir) : nullptr),
      shard_budget_(per_shard_budget(cfg)) {}

/// Tier 0 answers from the thread's slot before the insert announces
/// itself. Signature 0 is never answered there (0 marks an empty entry),
/// and every insert tier 0 did not answer writes its signature into the
/// entry, which the shards have by then stored.
bool TieredSigSet::insert(std::uint64_t sig) {
  const std::size_t idx = shard_of(sig);
  const std::size_t t = thread_slot();
  if (t >= kThreadSlots) return insert_locked(shards_[idx], idx, sig);
  Slot& own = slots_[t];
  if (!own.recent) own.recent = std::make_unique<std::uint64_t[]>(kRecentSlots);
  std::uint64_t& recent =
      own.recent[static_cast<std::size_t>(splitmix64_finalize(sig)) & (kRecentSlots - 1)];
  if (sig != 0 && recent == sig) {
    bump_single_writer(own.recent_hits);
    return false;
  }
  const bool fresh = insert_lock_free(shards_[idx], idx, sig, own);
  recent = sig;
  return fresh;
}

/// The announce-then-check pair below and the raise-then-scan pair in
/// make_room_locked are both sequentially consistent, so at least one side
/// sees the other: either this thread sees the flag and backs off, or the
/// thread making room sees the announcement and waits for it to be
/// withdrawn. The withdrawal is a release store, so the rehash or spill
/// sees every slot this claim wrote; the flag is lowered with a release
/// store once the room is made, so the next claim reads the new table and
/// runs. The table probe, the cold probe and the CAS thus run on one table
/// and one set of runs.
bool TieredSigSet::insert_lock_free(Shard& s, std::size_t idx, std::uint64_t sig, Slot& own) {
  for (;;) {
    own.inside.store(idx + 1);
    if (s.making_room.load()) {
      own.inside.store(0, std::memory_order_release);
      const std::lock_guard<std::mutex> wait_for_room(s.mu);
      continue;
    }
    const std::size_t capacity = s.set.capacity();
    const std::size_t rooms = s.rooms.load(std::memory_order_relaxed);
    const FlatSigSet::Claim c = s.set.claim(
        sig, [&](std::uint64_t x) { return disk_ != nullptr && in_cold(idx, x, own); });
    own.inside.store(0, std::memory_order_release);
    if (c == FlatSigSet::Claim::kPresent) {
      bump_single_writer(own.shard_hits);
      return false;
    }
    if (c == FlatSigSet::Claim::kFull) {
      make_room_from(s, idx, rooms);
      continue;
    }
    bump_single_writer(own.first_inserts);
    // Batch the load count: at most capacity/1024 per thread and shard go
    // uncounted, so a shard's load overshoots 0.7 by at most
    // kThreadSlots/1024 before it makes room (and a full probe path makes
    // room regardless). The batch is added early once this thread's own
    // view of the count reaches the load factor, so a shard with one
    // inserting thread makes room at the very insert FlatSigSet::insert
    // would grow at.
    bool due = over_budget(capacity);
    std::uint32_t& pending = own.pending[idx];
    ++pending;
    if (pending >= std::max<std::size_t>(capacity >> 10, 1) ||
        FlatSigSet::at_load_limit(own.seen[idx] + pending, capacity)) {
      const std::size_t filled = s.filled.fetch_add(pending, std::memory_order_relaxed) + pending;
      own.seen[idx] = filled;
      pending = 0;
      due = due || FlatSigSet::at_load_limit(filled, capacity);
    }
    if (due) make_room_from(s, idx, rooms);
    return true;
  }
}

/// A thread without a slot: the shard lock excludes making room, and the
/// CAS in claim() orders this insert against the lock-free ones.
bool TieredSigSet::insert_locked(Shard& s, std::size_t idx, std::uint64_t sig) {
  const std::lock_guard<std::mutex> lk(s.mu);
  for (;;) {
    const FlatSigSet::Claim c = s.set.claim(
        sig, [&](std::uint64_t x) { return disk_ != nullptr && in_cold(idx, x, shared_); });
    if (c == FlatSigSet::Claim::kPresent) {
      bump_slot(shared_.shard_hits, true);
      return false;
    }
    if (c == FlatSigSet::Claim::kFull) {
      make_room_locked(s, idx);
      continue;
    }
    bump_slot(shared_.first_inserts, true);
    const std::size_t capacity = s.set.capacity();
    const std::size_t filled = s.filled.fetch_add(1, std::memory_order_relaxed) + 1;
    if (FlatSigSet::at_load_limit(filled, capacity) || over_budget(capacity)) {
      make_room_locked(s, idx);
    }
    return true;
  }
}

/// True iff `sig`, which the shard's table lacks, was spilled to the
/// shard's runs; counts the probe in `counts` (its owner's plain adds, or
/// atomic ones in the shared slot). Callers test `disk_` first, so a store
/// without a disk tier makes no call.
bool TieredSigSet::in_cold(std::size_t idx, std::uint64_t sig, Slot& counts) {
  const DiskTier::Probe p = disk_->probe(idx, sig);
  if (p == DiskTier::Probe::kNoRuns) return false;
  const bool shared = &counts == &shared_;
  bump_slot(counts.cold_probes, shared);
  if (p == DiskTier::Probe::kBloomSkip) bump_slot(counts.bloom_skips, shared);
  if (p != DiskTier::Probe::kHit) return false;
  bump_slot(counts.cold_hits, shared);
  return true;
}

/// A table of `capacity` slots is past the shard budget. Not once the cap
/// has latched: the shards then grow like unbudgeted ones, so a latched
/// shard does not take its lock on every later insert.
bool TieredSigSet::over_budget(std::size_t capacity) const noexcept {
  return shard_budget_ != 0 && capacity * sizeof(std::uint64_t) > shard_budget_ &&
         !mem_exhausted();
}

/// Makes room in the shard unless another thread already did since the
/// caller read `seen_rooms`.
void TieredSigSet::make_room_from(Shard& s, std::size_t idx, std::size_t seen_rooms) {
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.rooms.load(std::memory_order_relaxed) == seen_rooms) make_room_locked(s, idx);
}

/// Caller holds s.mu. Lock-free claims that announced themselves before the
/// flag went up finish on the old table and runs, and the rehash or spill
/// takes what they wrote; later ones wait on s.mu and retry. So making room
/// neither loses an insert nor lets one signature be claimed twice. The
/// flag comes down on every exit, a throwing spill's too.
void TieredSigSet::make_room_locked(Shard& s, std::size_t idx) {
  s.making_room.store(true);
  for (const Slot& t : slots_) {
    while (t.inside.load() == idx + 1) std::this_thread::yield();
  }
  struct Done {
    Shard& s;
    ~Done() {
      bump_single_writer(s.rooms);
      s.making_room.store(false, std::memory_order_release);
    }
  } done{s};
  if (shard_budget_ != 0 && s.set.bytes() * 2 > shard_budget_) {
    if (disk_ != nullptr) {
      disk_->spill(idx, s.set);  // on a throw, the table is as it was
      s.filled.store(0, std::memory_order_relaxed);
      return;
    }
    mem_exhausted_.store(true, std::memory_order_relaxed);
  }
  s.set.grow();
}

TierStats TieredSigSet::tier_stats() const {
  const auto count = [this](std::atomic<std::size_t> Slot::*counter) {
    return static_cast<std::int64_t>(sum(counter));
  };
  TierStats t;
  t.recent_hits = count(&Slot::recent_hits);
  t.cold_probes = count(&Slot::cold_probes);
  t.bloom_skips = count(&Slot::bloom_skips);
  t.cold_hits = count(&Slot::cold_hits);
  if (disk_) {
    t.spills = disk_->spills();
    t.spilled_sigs = disk_->spilled_sigs();
    t.spill_bytes = disk_->spill_bytes();
    t.merges = disk_->merges();
  }
  // A duplicate the shards answered was found in a table (tier 1) or a run.
  t.mem_hits = std::max<std::int64_t>(0, count(&Slot::shard_hits) - t.cold_hits);
  return t;
}

}  // namespace efd
