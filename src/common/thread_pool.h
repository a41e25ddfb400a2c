// Fixed-size thread pool with a blocking work queue.
//
// The distributed-execution runtime gives each simulated edge device its own
// worker; the RL trainers use a pool for multi-seed sweeps. MPI-style
// discipline: tasks communicate through explicit queues, never shared
// mutable state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace murmur {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  /// A non-empty `name` registers each worker as "<name>/w<i>" in the
  /// thread-name registry (common/log.h) so trace exports label pool
  /// threads instead of showing anonymous tids; the constructor returns
  /// only after every worker has registered its name.
  explicit ThreadPool(std::size_t threads = 0, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker (snapshot; the
  /// serving layer exports this as its queue-depth gauge).
  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Tasks currently executing on workers (snapshot).
  std::size_t active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> active_{0};
  bool stop_ = false;
  /// Counted down by each worker once named; a member rather than a
  /// constructor local, so the last count_down's wake-up never touches a
  /// dead latch after the constructor returns.
  std::latch named_;
};

}  // namespace murmur
