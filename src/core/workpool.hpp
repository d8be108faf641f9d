// The worker pool of the parallel exploration frontier (core/solvability,
// core/bivalence) and the campaign farm (core/campaign).
//
// ResidentPool is the one batch executor: a fixed crew of worker threads is
// spawned once and parked on a condition variable between run() calls. A
// batch is dealt round-robin onto per-worker deques; each worker drains its
// own deque LIFO and steals FIFO from the others when empty. No dynamic task
// spawning — the explorers shard a DFS frontier up front, so a worker may
// stop as soon as every deque is empty. WorkStealingPool::run is the
// one-shot form: a crew built for a single batch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace efd {

/// Telemetry of one pool batch. Steals count tasks a worker pulled from
/// ANOTHER worker's deque — a measure of how unevenly the frontier shards
/// were sized, not of correctness (clean-sweep outcomes are
/// thread-count-invariant regardless).
struct PoolStats {
  std::int64_t tasks = 0;                 ///< tasks executed in total
  std::int64_t steals = 0;                ///< tasks executed off a foreign deque
  std::vector<std::int64_t> per_worker;   ///< tasks executed by each worker
};

/// A persistent crew for many batches. The crew matters for callers issuing
/// many small batches: the campaign farm runs thousands of batches per
/// minute, and per-call std::thread spawn left every batch's workers with
/// cold register-interner memos and allocator arenas (measured as NEGATIVE
/// scaling — 8 workers slower than 1 — before the crew was resident).
class ResidentPool {
 public:
  /// Spawns `threads - 1` persistent workers (clamped to >= 1; with one
  /// thread every run() degenerates to an inline sequential loop).
  explicit ResidentPool(int threads);
  ~ResidentPool();
  ResidentPool(const ResidentPool&) = delete;
  ResidentPool& operator=(const ResidentPool&) = delete;

  /// Runs every task to completion and returns once all have finished.
  /// The calling thread participates as worker 0. Exceptions thrown by
  /// tasks are rethrown here after the batch completes (first one wins).
  /// Not reentrant: callers must not overlap run() invocations on the same
  /// pool. `stats`, when non-null, is overwritten with this batch's
  /// telemetry.
  void run(std::vector<std::function<void()>>&& tasks, PoolStats* stats = nullptr);

  [[nodiscard]] int threads() const noexcept { return threads_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< null when threads_ == 1
  int threads_ = 1;
};

class WorkStealingPool {
 public:
  /// One batch on a ResidentPool of `threads` workers built for it (none
  /// are spawned for a batch of at most one task).
  static void run(std::vector<std::function<void()>>&& tasks, int threads,
                  PoolStats* stats = nullptr);
};

}  // namespace efd
