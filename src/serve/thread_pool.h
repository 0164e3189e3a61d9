// Fixed-size worker pool used by the query engine. Deliberately minimal:
// a mutex-protected FIFO plus a drain barrier (`Wait`), which is all batch
// query execution needs. The engine runs one block of every batch on the
// calling thread, so its pool holds one worker fewer than the threads a
// batch runs on — none at all for single-threaded serving. Tasks must not
// throw.

#ifndef WAZI_SERVE_THREAD_POOL_H_
#define WAZI_SERVE_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace wazi::serve {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 0). A pool with no
  // worker runs each submitted task on the submitting thread.
  explicit ThreadPool(int num_threads);
  // Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task) EXCLUDES(mu_);

  // Blocks until every task submitted so far has finished running.
  void Wait() EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  CondVar task_cv_;  // workers: new task or shutdown
  CondVar idle_cv_;  // Wait(): all tasks finished
  int64_t unfinished_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_THREAD_POOL_H_
