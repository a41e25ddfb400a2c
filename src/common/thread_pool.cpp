#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/log.h"

namespace murmur {

namespace {
std::size_t resolve_threads(std::size_t threads) {
  return threads == 0
             ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
             : threads;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::string name)
    : named_(static_cast<std::ptrdiff_t>(resolve_threads(threads))) {
  threads = resolve_threads(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, name, i] {
      if (!name.empty()) set_thread_name(name + "/w" + std::to_string(i));
      named_.count_down();
      worker_loop();
    });
  // Return only once every worker has named itself, so a trace exported
  // right after construction already labels the whole pool.
  named_.wait();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    task();
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    futs.push_back(submit([&fn, i] { fn(i); }));
  for (auto& f : futs) f.get();
}

}  // namespace murmur
