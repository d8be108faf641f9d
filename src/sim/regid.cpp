#include "sim/regid.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/hash.hpp"

namespace efd {
namespace {

/// Transparent string hashing for map lookups without temporary strings.
struct StrHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(fnv1a(s, kFnv1aTruncatedBasis));
  }
};

struct AddrKey {
  std::uint32_t sym;
  std::int32_t i, j, k;  // unused trailing indices are -1
  friend bool operator==(const AddrKey& a, const AddrKey& b) noexcept {
    return a.sym == b.sym && a.i == b.i && a.j == b.j && a.k == b.k;
  }
};

struct AddrKeyHash {
  std::size_t operator()(const AddrKey& a) const noexcept {
    // splitmix64 finalizer over the packed fields.
    std::uint64_t x = (static_cast<std::uint64_t>(a.sym) << 32) ^
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.i)));
    x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.j)) * kGoldenGamma;
    x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.k)) * 0xBF58476D1CE4E5B9ULL;
    return static_cast<std::size_t>(splitmix64_finalize(x));
  }
};

/// Fast-path size of the per-symbol dense child cache for reg(base, i):
/// indices below this resolve by plain array lookup.
constexpr std::size_t kDenseChildren = 1024;

/// Append-only table whose entries never move: chunk c holds
/// kFirstChunk << c entries, so a fixed directory of chunk pointers covers
/// every 32-bit id and no append relocates a published entry. Appends run
/// under the interner's exclusive lock; reads take no lock. An append fills
/// its slot (allocating and publishing its chunk first if needed) and then
/// release-stores the new size, so a reader that acquire-loads a size above
/// its id sees the entry fully written.
template <class T>
class StableTable {
 public:
  StableTable() = default;
  StableTable(const StableTable&) = delete;
  StableTable& operator=(const StableTable&) = delete;
  ~StableTable() {
    for (auto& chunk : dir_) delete[] chunk.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  /// Lock-free read of a published entry; throws past the end.
  [[nodiscard]] const T& at(std::uint32_t id) const {
    if (id >= size()) throw std::out_of_range("register interner: unknown id");
    const Loc l = locate(id);
    return dir_[l.chunk].load(std::memory_order_acquire)[l.offset];
  }
  /// Mutable access for fields the owner guards with its own lock.
  [[nodiscard]] T& at(std::uint32_t id) {
    return const_cast<T&>(std::as_const(*this).at(id));
  }

  /// Appends `value` and returns its id. Precondition: the owner's
  /// exclusive lock is held (one writer at a time).
  std::uint32_t push_back(T value) {
    const std::uint32_t id = size_.load(std::memory_order_relaxed);
    if (id == kInvalidRegId) throw std::length_error("register interner exhausted");
    const Loc l = locate(id);
    T* chunk = dir_[l.chunk].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[kFirstChunk << l.chunk];
      dir_[l.chunk].store(chunk, std::memory_order_release);
    }
    chunk[l.offset] = std::move(value);
    size_.store(id + 1, std::memory_order_release);
    return id;
  }

 private:
  static constexpr unsigned kFirstChunkBits = 8;
  static constexpr std::size_t kFirstChunk = std::size_t{1} << kFirstChunkBits;

  struct Loc {
    std::size_t chunk;
    std::size_t offset;
  };
  /// Chunk c starts at id (kFirstChunk << c) - kFirstChunk.
  static Loc locate(std::uint32_t id) noexcept {
    const std::uint64_t v = std::uint64_t{id} + kFirstChunk;
    const auto top = static_cast<unsigned>(std::bit_width(v)) - 1;
    return {top - kFirstChunkBits, static_cast<std::size_t>(v - (std::uint64_t{1} << top))};
  }

  // Ids reach 2^32 - 2, so the last chunk index is 32 - kFirstChunkBits.
  std::array<std::atomic<T*>, 33 - kFirstChunkBits> dir_{};
  std::atomic<std::uint32_t> size_{0};
};

/// Process-global append-only interner. Thread-safe: the parallel frontier
/// explorer and the campaign farm run many Worlds concurrently, all
/// resolving register addresses through this table. Id reads (a name or a
/// name hash by id) take no lock: entries live in StableTables and never
/// change once published, so trace hashing on every worker only reads
/// shared memory. Name->id lookups take a shared lock; the first
/// resolution of a new name takes the exclusive lock, re-checks, and
/// appends.
class Interner {
 public:
  static Interner& instance() {
    static Interner it;
    return it;
  }

  std::uint32_t sym_id(std::string_view name) {
    {
      std::shared_lock lk(mu_);
      const auto hit = sym_ids_.find(name);
      if (hit != sym_ids_.end()) return hit->second;
    }
    std::unique_lock lk(mu_);
    const auto hit = sym_ids_.find(name);
    if (hit != sym_ids_.end()) return hit->second;
    const std::uint32_t id = syms_.push_back(SymEntry{std::string(name), kInvalidRegId, {}});
    sym_ids_.emplace(syms_.at(id).name, id);
    return id;
  }

  const std::string& sym_name(std::uint32_t id) const { return syms_.at(id).name; }

  RegId resolve0(std::uint32_t s) {
    {
      std::shared_lock lk(mu_);
      const RegId id = syms_.at(s).self;
      if (id != kInvalidRegId) return id;
    }
    std::unique_lock lk(mu_);
    SymEntry& e = syms_.at(s);
    if (e.self == kInvalidRegId) e.self = intern_name_locked(e.name);
    return e.self;
  }

  RegId resolve1(std::uint32_t s, int i) {
    if (i >= 0 && static_cast<std::size_t>(i) < kDenseChildren) {
      {
        std::shared_lock lk(mu_);
        const SymEntry& e = syms_.at(s);
        if (static_cast<std::size_t>(i) < e.children.size()) {
          const RegId id = e.children[static_cast<std::size_t>(i)];
          if (id != kInvalidRegId) return id;
        }
      }
      std::unique_lock lk(mu_);
      SymEntry& e = syms_.at(s);
      if (static_cast<std::size_t>(i) >= e.children.size()) {
        e.children.resize(static_cast<std::size_t>(i) + 1, kInvalidRegId);
      }
      RegId& slot = e.children[static_cast<std::size_t>(i)];
      if (slot == kInvalidRegId) slot = intern_name_locked(render(s, i, nullptr, nullptr));
      return slot;
    }
    return resolve_slow(AddrKey{s, i, -1, -1});
  }

  RegId resolve2(std::uint32_t s, int i, int j) { return resolve_slow(AddrKey{s, i, j, -1}); }

  RegId resolve3(std::uint32_t s, int i, int j, int k) {
    return resolve_slow(AddrKey{s, i, j, k});
  }

  RegId intern_name(std::string_view name) {
    {
      std::shared_lock lk(mu_);
      const auto hit = by_name_.find(name);
      if (hit != by_name_.end()) return hit->second;
    }
    std::unique_lock lk(mu_);
    return intern_name_locked(name);
  }

  const std::string& reg_name(RegId id) const { return regs_.at(id).name; }
  std::uint64_t reg_name_hash(RegId id) const { return regs_.at(id).name_hash; }
  std::size_t count() const noexcept { return regs_.size(); }

 private:
  struct SymEntry {
    std::string name;             ///< immutable once published (read lock-free)
    RegId self;                   ///< arity-0 RegId, lazily interned; guarded by mu_
    std::vector<RegId> children;  ///< reg(base, i) fast path for small i; guarded by mu_
  };
  struct RegEntry {
    std::string name;        ///< canonical register name
    std::uint64_t name_hash; ///< FNV-1a of `name`; stable across processes
  };

  /// Precondition: exclusive lock held.
  RegId intern_name_locked(std::string_view name) {
    const auto hit = by_name_.find(name);
    if (hit != by_name_.end()) return hit->second;
    const RegId id =
        regs_.push_back(RegEntry{std::string(name), fnv1a(name, kFnv1aTruncatedBasis)});
    by_name_.emplace(regs_.at(id).name, id);
    return id;
  }

  RegId resolve_slow(const AddrKey& key) {
    {
      std::shared_lock lk(mu_);
      const auto hit = by_addr_.find(key);
      if (hit != by_addr_.end()) return hit->second;
    }
    std::unique_lock lk(mu_);
    const auto hit = by_addr_.find(key);
    if (hit != by_addr_.end()) return hit->second;
    const RegId id = intern_name_locked(
        render(key.sym, key.i, key.j >= 0 ? &key.j : nullptr, key.k >= 0 ? &key.k : nullptr));
    by_addr_.emplace(key, id);
    return id;
  }

  std::string render(std::uint32_t s, int i, const std::int32_t* j,
                     const std::int32_t* k) const {
    std::string out = sym_name(s);
    out += '[';
    out += std::to_string(i);
    out += ']';
    if (j != nullptr) {
      out += '[';
      out += std::to_string(*j);
      out += ']';
    }
    if (k != nullptr) {
      out += '[';
      out += std::to_string(*k);
      out += ']';
    }
    return out;
  }

  // The name->id maps are guarded by mu_; their keys are owned copies, and
  // transparent hashing lets lookups run on string_views without building a
  // temporary std::string. The entry tables sit on their own cache lines so
  // lock-free id reads never share one with the lock word.
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::uint32_t, StrHash, std::equal_to<>> sym_ids_;
  std::unordered_map<std::string, RegId, StrHash, std::equal_to<>> by_name_;
  std::unordered_map<AddrKey, RegId, AddrKeyHash> by_addr_;
  alignas(64) StableTable<SymEntry> syms_;
  alignas(64) StableTable<RegEntry> regs_;
};

}  // namespace

Sym sym(std::string_view name) { return Sym{Interner::instance().sym_id(name)}; }

const std::string& Sym::name() const { return Interner::instance().sym_name(id_); }

RegAddr::RegAddr(const std::string& name)
    : id_(Interner::instance().intern_name(name)) {}
RegAddr::RegAddr(const char* name) : id_(Interner::instance().intern_name(name)) {}
RegAddr::RegAddr(std::string_view name) : id_(Interner::instance().intern_name(name)) {}

const std::string& RegAddr::name() const { return Interner::instance().reg_name(id_); }
std::uint64_t RegAddr::name_hash() const { return Interner::instance().reg_name_hash(id_); }

RegAddr reg(Sym base) { return RegAddr::from_id(Interner::instance().resolve0(base.id())); }
RegAddr reg(Sym base, int i) {
  // (sym, index) -> RegId is append-only and immutable once resolved, so a
  // tiny direct-mapped thread-local memo can skip the interner's shared
  // lock: collect() resolves the same handful of addresses millions of
  // times per exploration sweep, and two atomic ops per resolve dominated
  // the interner's cost. Stale entries are impossible; collisions just
  // fall through to the interner.
  struct Memo {
    std::uint64_t tag;  // key + 1; 0 marks an empty slot
    RegId id;
  };
  static thread_local Memo memo[256] = {};
  const std::uint64_t key =
      ((static_cast<std::uint64_t>(base.id()) << 32) |
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(i))) + 1;
  Memo& m = memo[(key * 0x9E3779B97F4A7C15ULL) >> 56];
  if (m.tag == key) return RegAddr::from_id(m.id);
  const RegId id = Interner::instance().resolve1(base.id(), i);
  m.tag = key;
  m.id = id;
  return RegAddr::from_id(id);
}
RegAddr reg2(Sym base, int i, int j) {
  return RegAddr::from_id(Interner::instance().resolve2(base.id(), i, j));
}
RegAddr reg3(Sym base, int i, int j, int k) {
  return RegAddr::from_id(Interner::instance().resolve3(base.id(), i, j, k));
}

RegAddr reg(const std::string& base, int i) { return reg(sym(base), i); }
RegAddr reg2(const std::string& base, int i, int j) { return reg2(sym(base), i, j); }
RegAddr reg3(const std::string& base, int i, int j, int k) { return reg3(sym(base), i, j, k); }

std::size_t interned_register_count() { return Interner::instance().count(); }
const std::string& reg_name(RegId id) { return Interner::instance().reg_name(id); }
std::uint64_t reg_name_hash(RegId id) { return Interner::instance().reg_name_hash(id); }

}  // namespace efd
