// Fixed-size thread pool used to train independent pairwise NMT models in
// parallel (the paper notes pair models are embarrassingly parallel, §III-A2).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace desmine::util {

/// A minimal work-queue thread pool.
///
/// Tasks may throw: the exception is captured into the task's future. The
/// destructor drains outstanding tasks before joining, so submitted work is
/// never silently dropped.
///
/// Every pool reports into the process-wide metrics registry:
///   threadpool.queue_depth      gauge    tasks currently queued
///   threadpool.tasks_submitted  counter  submit() calls
///   threadpool.tasks_completed  counter  tasks run to completion
///   threadpool.queue_wait_us    histogram  time a task sat queued
class ThreadPool {
 public:
  /// Spawn `threads` workers (>= 1; defaults to hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future yields its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(
          {[task] { (*task)(); }, std::chrono::steady_clock::now()});
    }
    submitted_.inc();
    queue_depth_.add(1.0);
    cv_.notify_one();
    return fut;
  }

  /// Outcome of draining a batch of futures: every future is consumed even
  /// when some threw, so one bad task cannot strand the rest.
  struct DrainStats {
    std::size_t completed = 0;  ///< futures that resolved without throwing
    std::size_t failed = 0;
    std::string first_error;  ///< what() of the first failure, in order
    std::exception_ptr first_exception;
  };

  /// Wait for every future, collecting (not rethrowing) all exceptions.
  /// "First" follows the order of the vector, so it is deterministic.
  static DrainStats wait_all(std::vector<std::future<void>>& futures);

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// All tasks run even when some throw; if any failed, a RuntimeError
  /// aggregating the failure count and the first message is thrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Task {
    std::function<void()> run;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  obs::Gauge& queue_depth_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Histogram& queue_wait_us_;
};

}  // namespace desmine::util
