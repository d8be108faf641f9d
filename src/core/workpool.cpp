#include "core/workpool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace efd {
namespace {

struct Deque {
  std::mutex mu;
  std::deque<std::function<void()>> q;
};

bool pop_own(Deque& d, std::function<void()>& out) {
  std::lock_guard<std::mutex> lk(d.mu);
  if (d.q.empty()) return false;
  out = std::move(d.q.back());
  d.q.pop_back();
  return true;
}

bool steal(Deque& d, std::function<void()>& out) {
  std::lock_guard<std::mutex> lk(d.mu);
  if (d.q.empty()) return false;
  out = std::move(d.q.front());
  d.q.pop_front();
  return true;
}

}  // namespace

// One batch's worth of shared pool state plus the persistent crew. The
// worker protocol is epoch-based: run() deals tasks into the deques, bumps
// `epoch`, and wakes everyone; each worker drains (own deque LIFO, steal
// FIFO) until every deque is empty, then decrements `active` and goes back
// to waiting for the next epoch. run() itself drains as worker 0 and
// returns once `active` hits zero — at which point every task has finished
// and every stats write happened-before the caller's read.
struct ResidentPool::Impl {
  std::size_t n = 0;
  std::vector<Deque> deques;
  std::vector<std::int64_t> executed;
  std::vector<std::int64_t> stolen;
  std::atomic<std::size_t> remaining{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  std::mutex wake_mu;
  std::condition_variable wake_cv;
  std::uint64_t epoch = 0;
  bool stop = false;

  std::atomic<int> active{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  std::vector<std::thread> crew;

  void drain(std::size_t me) {
    std::function<void()> task;
    while (remaining.load(std::memory_order_acquire) > 0) {
      bool got = pop_own(deques[me], task);
      bool was_steal = false;
      for (std::size_t off = 1; !got && off < n; ++off) {
        got = steal(deques[(me + off) % n], task);
        was_steal = got;
      }
      if (!got) break;  // any still-counted task is executing elsewhere
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      task = nullptr;
      ++executed[me];
      if (was_steal) ++stolen[me];
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// Raises `stop`, wakes the crew and joins every worker.
  void stop_crew() {
    {
      std::lock_guard<std::mutex> lk(wake_mu);
      stop = true;
    }
    wake_cv.notify_all();
    for (auto& t : crew) t.join();
  }

  void worker(std::size_t me) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(wake_mu);
        wake_cv.wait(lk, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
      }
      drain(me);
      if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(done_mu);
        done_cv.notify_one();
      }
    }
  }
};

ResidentPool::ResidentPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  if (threads_ <= 1) return;
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;
  im.n = static_cast<std::size_t>(threads_);
  im.deques = std::vector<Deque>(im.n);
  im.executed.assign(im.n, 0);
  im.stolen.assign(im.n, 0);
  im.crew.reserve(im.n - 1);
  try {
    for (std::size_t i = 1; i < im.n; ++i) {
      im.crew.emplace_back([this, i] { impl_->worker(i); });
    }
  } catch (...) {
    // A thread that cannot be spawned (std::system_error): the workers
    // already running must be joined before `impl_` goes, or destroying a
    // joinable std::thread terminates the process.
    im.stop_crew();
    throw;
  }
}

ResidentPool::~ResidentPool() {
  if (impl_) impl_->stop_crew();
}

void ResidentPool::run(std::vector<std::function<void()>>&& tasks, PoolStats* stats) {
  if (impl_ == nullptr || tasks.size() <= 1) {
    for (auto& t : tasks) t();
    if (stats != nullptr) {
      *stats = PoolStats{};
      stats->tasks = static_cast<std::int64_t>(tasks.size());
      stats->per_worker.assign(1, stats->tasks);
    }
    return;
  }
  Impl& im = *impl_;
  std::fill(im.executed.begin(), im.executed.end(), 0);
  std::fill(im.stolen.begin(), im.stolen.end(), 0);
  im.first_error = nullptr;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    im.deques[i % im.n].q.push_back(std::move(tasks[i]));
  }
  im.remaining.store(tasks.size(), std::memory_order_release);
  im.active.store(static_cast<int>(im.n), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(im.wake_mu);
    ++im.epoch;
  }
  im.wake_cv.notify_all();
  im.drain(0);
  if (im.active.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    std::unique_lock<std::mutex> lk(im.done_mu);
    im.done_cv.wait(lk, [&] { return im.active.load(std::memory_order_acquire) == 0; });
  }
  if (stats != nullptr) {
    *stats = PoolStats{};
    stats->per_worker = im.executed;
    for (std::size_t i = 0; i < im.n; ++i) {
      stats->tasks += im.executed[i];
      stats->steals += im.stolen[i];
    }
  }
  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
}

void WorkStealingPool::run(std::vector<std::function<void()>>&& tasks, int threads,
                           PoolStats* stats) {
  ResidentPool(tasks.size() > 1 ? threads : 1).run(std::move(tasks), stats);
}

}  // namespace efd
