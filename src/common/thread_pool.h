// Reusable fixed-size worker pool.
//
// One pool instance owns N long-lived worker threads consuming a shared job
// queue. Jobs are submitted as callables and their results (or exceptions)
// are delivered through std::future, so failures inside a worker propagate
// to whoever awaits the job instead of crashing the process. The pool is
// the shared threading substrate of the codebase: the serving engine runs
// micro-batches on it, MuffinSearch evaluates controller batches on it,
// and parallel_for (common/parallel_for.h) splits kernel row-blocks over
// it. It lives in common (not serve) so the tensor layer can partition
// GEMMs without depending on the serving runtime.
//
// Workers are numbered 0..size()-1; current_worker() returns the index of
// the pool worker executing the current job (or npos outside a worker).
// Components that keep per-worker state — e.g. the engine's per-worker
// muffin-head clones — index it with current_worker(). The index is
// per-thread, not per-pool: a worker of any pool reports its index, which
// is also how parallel_for detects nested use and degrades to serial.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace muffin::common {

class ThreadPool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: pending jobs are discarded, running jobs complete,
  /// workers are joined. Futures of discarded jobs become broken promises.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Index of the pool worker running the current job; npos when called
  /// from a thread that is not one of this pool's workers.
  [[nodiscard]] static std::size_t current_worker();

  /// Enqueue a callable; the returned future yields its result or rethrows
  /// the exception it raised.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& job) {
    using Result = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(job));
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Number of jobs waiting in the queue (not including running jobs).
  [[nodiscard]] std::size_t pending() const;

 private:
  void enqueue(std::function<void()> job);
  void worker_loop(std::size_t index);

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> jobs_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace muffin::common
