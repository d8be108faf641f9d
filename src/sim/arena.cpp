#include "sim/arena.hpp"

#include <atomic>
#include <new>

namespace efd {
namespace {

thread_local FrameArena* tls_current = nullptr;

std::atomic<bool> g_enabled{true};

// Prefixed to every frame_alloc block. 16 bytes keeps the frame itself on a
// 16-byte boundary (coroutine frames may hold over-aligned locals up to that).
struct FrameHeader {
  FrameArena* owner;  // nullptr => block came from the global heap
  std::size_t bytes;  // header-inclusive size, for the arena's size class
};
static_assert(sizeof(FrameHeader) == 16);

}  // namespace

FrameArena::~FrameArena() {
  Chunk* c = chunks_;
  while (c != nullptr) {
    Chunk* next = c->next;
    ::operator delete(static_cast<void*>(c));
    c = next;
  }
}

void FrameArena::grow(std::size_t need) {
  std::size_t payload = next_chunk_bytes_;
  if (payload < need) payload = need;
  next_chunk_bytes_ = next_chunk_bytes_ < (1u << 20) ? next_chunk_bytes_ * 2 : next_chunk_bytes_;
  const std::size_t total = sizeof(Chunk) + payload;
  auto* raw = static_cast<char*>(::operator new(total));
  auto* chunk = reinterpret_cast<Chunk*>(raw);
  chunk->next = chunks_;
  chunks_ = chunk;
  bump_ = raw + sizeof(Chunk);
  bump_end_ = raw + total;
  stats_.chunk_bytes += static_cast<std::int64_t>(total);
}

void* FrameArena::allocate(std::size_t bytes) {
  const std::size_t cls = class_of(bytes);
  const std::size_t rounded = cls * kClassBytes;
  ++stats_.allocs;
  if (FreeNode* n = freelists_[cls]) {
    freelists_[cls] = n->next;
    ++stats_.pool_hits;
    return n;
  }
  if (static_cast<std::size_t>(bump_end_ - bump_) < rounded) grow(rounded);
  char* p = bump_;
  bump_ += rounded;
  return p;
}

void FrameArena::deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t cls = class_of(bytes);
  auto* n = static_cast<FreeNode*>(p);
  n->next = freelists_[cls];
  freelists_[cls] = n;
  ++stats_.frees;
}

FrameArena* FrameArena::current() noexcept { return tls_current; }

void FrameArena::set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool FrameArena::enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

FrameArena::Scope::Scope(FrameArena* a) noexcept : prev_(tls_current) { tls_current = a; }
FrameArena::Scope::~Scope() { tls_current = prev_; }

void* frame_alloc(std::size_t bytes) {
  const std::size_t total = sizeof(FrameHeader) + bytes;
  FrameArena* arena = tls_current;
  void* block;
  if (arena != nullptr && total <= FrameArena::kMaxPooled &&
      FrameArena::enabled()) {
    block = arena->allocate(total);
  } else {
    arena = nullptr;
    block = ::operator new(total);
  }
  auto* hdr = static_cast<FrameHeader*>(block);
  hdr->owner = arena;
  hdr->bytes = total;
  return hdr + 1;
}

void frame_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* hdr = static_cast<FrameHeader*>(p) - 1;
  if (hdr->owner != nullptr) {
    hdr->owner->deallocate(hdr, hdr->bytes);
  } else {
    ::operator delete(static_cast<void*>(hdr));
  }
}

}  // namespace efd
