#include "serve/thread_pool.hpp"

namespace flstore::serve {

ThreadPool::ThreadPool(int threads) {
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    const MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  const MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.wait(mu_);
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  for (auto& t : tasks) submit(std::move(t));
  wait_idle();
}

void ThreadPool::lend(const std::function<bool()>& done) {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mu_);
      while (!done() && queue_.empty()) work_cv_.wait(mu_);
      if (done()) {
        // A submit's notify_one may have picked this thread; pass it on so
        // the task it announced does not wait for the next one.
        if (!queue_.empty()) work_cv_.notify_one();
        return;
      }
      task = pop_locked();
    }
    run_popped(task);
  }
}

void ThreadPool::wake() {
  // Taking the lock orders this wake-up after a lender's read of its stop
  // condition, so the lender either saw the new value or is waiting.
  { const MutexLock lock(mu_); }
  work_cv_.notify_all();
}

void ThreadPool::run_replicated(int threads,
                                const std::function<void(int)>& fn) {
  if (threads <= 1) {
    fn(0);
    return;
  }
  // flstore-lint: allow(mutex-annotation) -- locals can't carry GUARDED_BY
  Mutex mu;
  CondVar cv;
  int arrived = 0;
  bool go = false;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      {
        const MutexLock lock(mu);
        ++arrived;
        if (arrived == threads) {
          go = true;
          cv.notify_all();
        } else {
          while (!go) cv.wait(mu);
        }
      }
      fn(i);
    });
  }
  for (auto& w : workers) w.join();
}

std::function<void()> ThreadPool::pop_locked() {
  auto task = std::move(queue_.front());
  queue_.pop_front();
  ++active_;
  return task;
}

void ThreadPool::run_popped(std::function<void()>& task) {
  task();
  const MutexLock lock(mu_);
  --active_;
  if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = pop_locked();
    }
    run_popped(task);
  }
}

}  // namespace flstore::serve
