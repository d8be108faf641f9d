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
std::atomic<std::size_t> g_thread_ordinal{0};

/// Slots of one tier-0 cache (a power of two: the index is a mask).
constexpr std::size_t kRecentSlots = std::size_t{1} << 12;

/// Tier-0 cache: one direct-mapped signature array per (thread, store).
/// `owner` is the owning store's nonce — a thread that alternates between
/// stores simply re-seeds the array. Only signatures that are KNOWN inserted
/// are written here, so a hit is always a true duplicate. Signature 0 is
/// never cached (0 marks an empty slot). `ordinal` picks the thread's
/// duplicate-counter stripe in every store it inserts into.
struct RecentCache {
  std::uint64_t owner = 0;
  std::vector<std::uint64_t> slots;
  std::size_t ordinal = g_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
};
thread_local RecentCache t_recent;

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
  bump_locked(s.cold_probes);
  if (!s.bloom.maybe(sig)) {
    bump_locked(s.bloom_skips);
    return false;
  }
  // Newest-first: DFS dedup hits skew heavily toward recent spills.
  for (auto it = s.runs.rbegin(); it != s.runs.rend(); ++it) {
    if (std::binary_search(it->data, it->data + it->count, sig)) {
      bump_locked(s.cold_hits);
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
  HitCell& hits = hits_[rc.ordinal % kHitStripes];
  if (rc.owner != id_) {
    rc.owner = id_;
    rc.slots.assign(kRecentSlots, 0);
  }
  const std::size_t slot =
      static_cast<std::size_t>(splitmix64_finalize(sig)) & (kRecentSlots - 1);
  if (sig != 0 && rc.slots[slot] == sig) {
    hits.recent_hits.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool fresh = mem_.insert(sig);
  if (!fresh) hits.dup_returns.fetch_add(1, std::memory_order_relaxed);
  rc.slots[slot] = sig;
  return fresh;
}

TierStats TieredSigSet::tier_stats() const {
  TierStats t;
  std::int64_t dup_returns = 0;
  for (const HitCell& c : hits_) {
    t.recent_hits += c.recent_hits.load(std::memory_order_relaxed);
    dup_returns += c.dup_returns.load(std::memory_order_relaxed);
  }
  if (disk_) {
    t.cold_probes = disk_->cold_probes();
    t.bloom_skips = disk_->bloom_skips();
    t.cold_hits = disk_->cold_hits();
    t.spills = disk_->spills();
    t.spilled_sigs = disk_->spilled_sigs();
    t.spill_bytes = disk_->spill_bytes();
    t.merges = disk_->merges();
  }
  t.mem_hits = std::max<std::int64_t>(0, dup_returns - t.cold_hits);
  return t;
}

}  // namespace efd
