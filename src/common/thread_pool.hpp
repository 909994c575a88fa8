#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size thread pool and a blocking parallel_for.
///
/// The experiment harnesses run one independent discrete-event simulation
/// per load level; those simulations share nothing, so a static block
/// partition over a fixed pool is the right tool (no work stealing needed:
/// per-item cost is balanced by interleaving indices across workers).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace adept {

/// Simple FIFO thread pool. Tasks may not throw; exceptions escaping a task
/// terminate the program (tasks are expected to capture and report errors).
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void submit(std::function<void()> task);

  /// Runs body(i) for i in [0, count) across the pool and returns when
  /// every index has finished. The *calling* thread participates in the
  /// work, so the call makes progress even when every worker is busy —
  /// which makes it safe to use from inside a task already running on
  /// this pool (the sharded planner fans its leaves out this way while
  /// itself executing as a PlanningService job). Indices are claimed
  /// dynamically from a shared counter. If `body` throws, remaining
  /// indices are skipped and the first exception is rethrown on the
  /// caller — only after every in-flight index has finished, so the
  /// body's captures never outlive the call.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Blocks until all submitted tasks have finished.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs body(i) for i in [0, count) across `threads` workers (0 = all cores)
/// and blocks until completion. Indices are interleaved (worker k takes
/// i ≡ k mod T), which balances monotone per-index costs such as
/// simulations whose duration grows with the load level.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace adept
