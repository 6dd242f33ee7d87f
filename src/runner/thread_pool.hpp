// Work-stealing thread pool for the experiment runner.
//
// Sweep cells are coarse (tens of milliseconds to seconds each) and
// independent, so the pool optimizes for simplicity and fairness rather
// than nanosecond-scale dispatch: each worker owns a deque protected by a
// short-lived mutex, pops its own work LIFO (cache-warm), and when idle
// scans the other workers and steals FIFO (oldest task first, the classic
// Blumofe-Leiserson discipline).  An idle worker parks on a condition
// variable; submission wakes one sleeper.
//
// Determinism note: the pool never reorders *results* -- callers index
// their output slots by submission order -- so anything computed from
// per-task state alone is bit-identical whatever the thread count or the
// steal interleaving.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eccsim::runner {

/// Fixed-size work-stealing pool.  Tasks are `void()` closures; exceptions
/// escaping a task terminate the process (tasks are expected to catch and
/// encode their own failures), matching std::thread semantics.
class ThreadPool {
 public:
  /// Starts `threads` workers (minimum 1).
  explicit ThreadPool(unsigned threads);

  /// Drains nothing: outstanding tasks still run to completion before the
  /// workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.  Thread-safe; may be called from worker threads
  /// (a worker pushes onto its own deque, external callers distribute
  /// round-robin).
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void wait_idle();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Thread count the runner should use: the `RUNNER_THREADS` environment
  /// variable if set to a positive integer, else the hardware concurrency
  /// (minimum 1).  A value that is not a whole decimal integer exits 2
  /// (common/parse.hpp); 0 means the hardware concurrency.
  static unsigned default_thread_count();

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// Nested fan-outs (e.g. a fault Monte Carlo launched from inside a
  /// sweep cell) use this to run inline on the calling worker instead of
  /// spinning up a second pool and oversubscribing the machine.
  static bool on_worker_thread();

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;
    std::mutex mu;
  };

  /// Worker main loop: run own work, steal, or park.
  void worker_loop(std::size_t self);
  /// Tries to take one task (own deque back, then steal victims' fronts).
  bool try_take(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   ///< workers park here when starved
  std::condition_variable done_cv_;   ///< wait_idle() parks here
  std::size_t unfinished_ = 0;        ///< submitted but not yet completed
  std::size_t queued_ = 0;            ///< submitted but not yet started
  std::size_t next_queue_ = 0;        ///< round-robin cursor for submits
  bool stopping_ = false;
};

}  // namespace eccsim::runner
