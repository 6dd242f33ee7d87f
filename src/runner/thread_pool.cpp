#include "runner/thread_pool.hpp"

#include <cstdlib>
#include <string>

#include "common/parse.hpp"

namespace eccsim::runner {

namespace {

// Identifies the current thread's home queue so submit() from inside a
// task pushes locally (the work-stealing fast path).
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    // Count the task before publishing it: once it is visible in a deque a
    // worker may pop it and decrement queued_, so the increment must come
    // first.
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++unfinished_;
    ++queued_;
    if (tl_pool == this) {
      target = tl_index;  // worker thread: push to own deque
    } else {
      target = next_queue_;
      next_queue_ = (next_queue_ + 1) % workers_.size();
    }
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->deque.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_take(std::size_t self, std::function<void()>& out) {
  {
    // Own deque: newest first, keeping the working set warm.
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mu);
    if (!w.deque.empty()) {
      out = std::move(w.deque.back());
      w.deque.pop_back();
      return true;
    }
  }
  // Steal: oldest task of the first non-empty victim, scanning from the
  // next worker so load spreads evenly.
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& v = *workers_[(self + k) % workers_.size()];
    std::lock_guard<std::mutex> lock(v.mu);
    if (!v.deque.empty()) {
      out = std::move(v.deque.front());
      v.deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_index = self;
  for (;;) {
    std::function<void()> task;
    if (try_take(self, task)) {
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --queued_;
      }
      task();
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (--unfinished_ == 0) done_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    // queued_ is the lost-wakeup guard: a submit that landed between the
    // failed scan above and this wait leaves it nonzero, so we loop
    // instead of sleeping through the notification.
    work_cv_.wait(lock, [this] { return queued_ > 0 || stopping_; });
    if (stopping_ && queued_ == 0) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  done_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool ThreadPool::on_worker_thread() { return tl_pool != nullptr; }

unsigned ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("RUNNER_THREADS")) {
    // Strict: `4x` or `abc` exits 2 instead of silently using all cores.
    const unsigned v = parse_uint<unsigned>("eccsim", "RUNNER_THREADS", env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace eccsim::runner
