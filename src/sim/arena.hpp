// Arena-pooled coroutine frame allocation.
//
// Every Co<T> coroutine frame used to come from the global heap: one
// operator-new per spawn/respawn and one per subroutine co_await (collect,
// double_collect, ...). The incremental explorer (core/solvability) respawns
// and fast-forwards millions of frames per sweep, so frame traffic dominated
// its allocation profile. This layer gives each World a FrameArena — a bump
// allocator with size-class freelists — and routes Co<T>::promise_type's
// operator new/delete through the thread-local "current arena":
//
//  * World::spawn/respawn/step/redeliver/pending_op install the world's
//    arena as current (RAII scope) before anything can allocate a frame;
//  * a frame allocated while an arena is current carries a small header
//    naming its owner, so operator delete needs NO thread-local state and a
//    frame may outlive any scope (it is freed back to its own arena);
//  * frames allocated with no current arena (bare coroutines in tests,
//    frames created outside any World entry point) fall back to the global
//    heap — the header's null owner routes the delete correspondingly.
//
// The steady state of an explore sweep is allocation-free: after the first
// few respawn/redeliver cycles every frame size has a warm freelist and
// respawns recycle frames without touching the heap.
//
// Thread model: a FrameArena is single-threaded — it belongs to one World,
// and a World is only ever stepped by one thread at a time (the parallel
// frontier gives every worker its own World). The current-arena pointer is
// thread-local, so concurrent Worlds on different threads never share
// freelists. The process-global kill switch (set_enabled) exists for A/B
// tests: pooled and heap runs must be bit-identical, which
// tests/test_alloc_pool.cpp checks property-style.
#pragma once

#include <cstddef>
#include <cstdint>

namespace efd {

/// Allocation telemetry of one arena (monotonic, never rewound).
struct ArenaStats {
  std::int64_t allocs = 0;      ///< frame allocations served by this arena
  std::int64_t frees = 0;       ///< frames returned to this arena
  std::int64_t pool_hits = 0;   ///< allocations served from a freelist
  std::int64_t chunk_bytes = 0; ///< bytes reserved from the global heap
  /// Frames currently live out of this arena.
  [[nodiscard]] std::int64_t live() const noexcept { return allocs - frees; }
};

/// Bump arena with size-class freelists for coroutine frames. One per World.
/// Heap-allocated and address-stable: freed frames find it via their header.
class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  /// Releases the chunks. All frames of this arena must already be freed
  /// (World destroys its coroutines before its arena).
  ~FrameArena();

  /// Allocates a `bytes`-sized block (without header; callers go through
  /// frame_alloc below, which adds the header).
  void* allocate(std::size_t bytes);
  /// Returns a block to its size-class freelist.
  void deallocate(void* p, std::size_t bytes) noexcept;

  [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }

  /// The thread's current arena (frame allocations target it), or nullptr.
  [[nodiscard]] static FrameArena* current() noexcept;

  /// Process-global kill switch (on at startup). When off, frame_alloc
  /// ignores the current arena and uses the heap; already-live pooled frames
  /// still free correctly via their header.
  static void set_enabled(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept;

  /// RAII: installs `a` as the thread's current arena, restoring the
  /// previous one on destruction (scopes nest).
  class Scope {
   public:
    explicit Scope(FrameArena* a) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FrameArena* prev_;
  };

 private:
  // Frames are grouped into 64-byte size classes; anything above the largest
  // class (a pathological frame) bypasses the arena entirely.
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kNumClasses = 64;  // up to 4 KiB frames
  static constexpr std::size_t kMaxPooled = kClassBytes * kNumClasses;

  struct FreeNode {
    FreeNode* next;
  };
  struct Chunk {
    Chunk* next;
    // chunk payload follows
  };

  [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept {
    return (bytes + kClassBytes - 1) / kClassBytes;  // 1-based; 0 unused
  }

  void grow(std::size_t need);

  FreeNode* freelists_[kNumClasses + 1] = {};
  Chunk* chunks_ = nullptr;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  std::size_t next_chunk_bytes_ = 16 * 1024;
  ArenaStats stats_;

  friend void* frame_alloc(std::size_t);
};

/// Allocates a coroutine frame: from the current arena when one is installed
/// (and pooling is enabled), else from the global heap. Always prefixes a
/// 16-byte owner header so frame_free is self-routing.
[[nodiscard]] void* frame_alloc(std::size_t bytes);
/// Frees a frame allocated by frame_alloc, wherever it came from.
void frame_free(void* p) noexcept;

}  // namespace efd
