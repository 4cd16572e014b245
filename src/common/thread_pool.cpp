#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace hemp {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  wake_.notify_one();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// Shared state of one parallel_for call.  Workers and the caller all drain
// the same atomic index counter, so load balances automatically and the
// caller always makes progress even on a single-core machine.
//
// Helper tasks may still sit in the pool's queue when the caller has drained
// every index — behind the caller itself, when the caller is a worker of the
// same pool (a nested parallel_for).  So the caller waits only for helpers
// that have already started; once it has closed the call, a helper that
// starts later returns without touching the body.
struct ForState {
  explicit ForState(std::size_t count, const std::function<void(std::size_t)>& fn)
      : n(count), body(fn) {}

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// A helper task: join the drain unless the caller has closed the call.
  void help() {
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      if (closed) return;
      ++helpers_running;
    }
    drain();
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      --helpers_running;
    }
    done.notify_one();
  }

  /// The caller, after its own drain: close the call to late helpers and
  /// wait for the running ones.
  void close_and_wait() {
    std::unique_lock<std::mutex> lock(done_mutex);
    closed = true;
    done.wait(lock, [&] { return helpers_running == 0; });
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done;
  int helpers_running = 0;
  bool closed = false;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }

  // The caller participates, so spawn at most enough helpers to give every
  // index its own thread.
  const auto state = std::make_shared<ForState>(n, body);
  const unsigned helpers =
      static_cast<unsigned>(std::min<std::size_t>(pool.size(), n - 1));
  for (unsigned i = 0; i < helpers; ++i) {
    pool.submit([state] { state->help(); });
  }

  state->drain();
  state->close_and_wait();
  if (state->error) std::rethrow_exception(state->error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::shared(), n, body);
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    parallel_for(*pool, n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace hemp
