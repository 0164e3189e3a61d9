#include "serve/thread_pool.h"

#include <algorithm>
#include <utility>

namespace wazi::serve {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(0, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  task_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
    ++unfinished_;
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (unfinished_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && tasks_.empty()) task_cv_.Wait(mu_);
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    {
      MutexLock lock(&mu_);
      if (--unfinished_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace wazi::serve
