// Persistent FIFO thread pool — the one thread home for every concurrent
// path in the repo.
//
// Why it exists: a pool built per request pays thread spawn/join on every
// dispatch, and a long-lived server cannot afford that. The Executor is
// constructed once (usually the process-wide shared() instance, sized to
// hardware concurrency) and the daemon's request handlers run on it. Each
// message is encrypted or decrypted sequentially on one thread; the
// parallelism here is across messages.
//
// Design: one mutex, one condition variable and one queue of tasks served
// in submission order. Tasks are coarse (a whole request), so contention is
// on the order of the task count, not the work, and the locking is
// trivially ThreadSanitizer-clean. The destructor drains: every queued task
// runs to completion before the workers join. Submission after shutdown
// began throws std::runtime_error.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mhhea::exec {

class Executor {
 public:
  /// Spawns `n_workers` persistent workers (>= 1; std::invalid_argument
  /// otherwise).
  explicit Executor(int n_workers);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Graceful drain: every already-submitted task runs to completion before
  /// the workers join.
  ~Executor();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Enqueue a task at the back of the queue. Tasks must not throw (a
  /// throwing task terminates). Throws std::runtime_error once shutdown has
  /// begun.
  void submit(std::function<void()> task);

  /// The process-wide executor: hardware-concurrency workers (at least
  /// one), constructed on first use, alive for the rest of the process, so
  /// the whole process pays thread creation exactly once.
  static Executor& shared();

 private:
  void worker_loop();
  /// Set stopping_, wake every worker and join them once the queue drains.
  void stop_and_join() noexcept;

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mhhea::exec
