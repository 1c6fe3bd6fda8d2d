// Persistent FIFO thread pool.
//
// Its only caller is perfbench's executor-hop probe (`exec.hop_*`,
// `exec.workers`): the mhhead daemon runs each connection's crypto inline
// on the reactor thread that owns the connection (src/server/server.hpp),
// so nothing in the library submits work here any more. It stays until a
// benchmark change replaces that probe.
//
// Why a persistent pool: one built per request pays thread spawn/join on
// every dispatch. The Executor is constructed once (usually the
// process-wide shared() instance, sized to hardware concurrency). Each task
// runs sequentially on one thread; the parallelism is across tasks.
//
// Design: one mutex, one condition variable and one queue of tasks served
// in submission order. Tasks are coarse, so contention is on the order of
// the task count, not the work, and the locking is trivially
// ThreadSanitizer-clean. The destructor drains: every queued task runs to
// completion before the workers join. Submission after shutdown began
// throws std::runtime_error.
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
