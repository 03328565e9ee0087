// Fixed-size thread pool for fan-out query serving.
//
// Deliberately minimal: N long-lived workers draining one mutex-protected
// FIFO queue. No work stealing, no priorities, no futures — the callers
// submit coarse tasks (whole queries, or one row block of a sweep), so a
// simple queue is never the bottleneck. Tasks must not throw; the library
// is exception-free (Status/Result), and a throwing task would terminate.

#ifndef FLOS_UTIL_THREAD_POOL_H_
#define FLOS_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace flos {

/// Fixed pool of worker threads consuming submitted tasks FIFO.
/// Submit/Wait/Shutdown may be called from any single controlling thread;
/// tasks themselves must not Submit or Wait (no nested scheduling).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks (as if by Shutdown) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue). After Shutdown has
  /// begun the task is rejected with kFailedPrecondition and never runs.
  Status Submit(std::function<void()> task) FLOS_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished running.
  void Wait() FLOS_EXCLUDES(mu_);

  /// Graceful shutdown: stops accepting new tasks, lets every already
  /// submitted task (queued or in flight) run to completion, then joins
  /// the workers. Idempotent; the destructor calls it implicitly.
  void Shutdown() FLOS_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency, with a floor of 1 (hardware_concurrency may
  /// report 0). The default worker count for batch serving.
  static int DefaultNumThreads();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar work_ready_;   // queue non-empty or shutdown
  CondVar all_idle_;     // pending_ reached zero
  std::deque<std::function<void()>> queue_ FLOS_GUARDED_BY(mu_);
  uint64_t pending_ FLOS_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutdown_ FLOS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace flos

#endif  // FLOS_UTIL_THREAD_POOL_H_
