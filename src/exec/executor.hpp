// Persistent work-stealing executor — the one thread home for every
// concurrent path in the repo.
//
// Why it exists: a pool built per batch call pays thread spawn/join on every
// fan-out, and every small message pays wakeup latency on a cold pool. A
// long-lived server cannot afford either. The Executor is constructed once
// (usually the process-wide shared() instance, sized to hardware
// concurrency) and shared by encrypt_batch and the server's request
// handlers. Each message is encrypted or decrypted sequentially on one
// thread; the parallelism here is across messages.
//
// Design:
//   * per-worker deques + a shared injection queue. A worker pushes its own
//     submissions to its deque and pops LIFO (locality); idle workers steal
//     FIFO from the injection queue and from each other, so a batch fan-out
//     spreads across cores without a central bottleneck.
//     Queues are mutex-per-deque — tasks here are coarse (a batch worker, a
//     whole request), so contention is on the order of the task count, not
//     the work, and the locking is trivially ThreadSanitizer-clean.
//   * TaskGroup: fork-join with a completion latch and exception routing.
//     Waiters HELP: while the group is outstanding they execute queued tasks
//     instead of blocking, so nested fan-out (a task that itself runs a
//     group on the same executor) cannot deadlock even on a single-worker
//     executor.
//   * graceful drain on shutdown: the destructor completes every queued task
//     before joining — submitted work is never dropped.
//
// Submission after shutdown began throws std::runtime_error. TaskGroup::run
// rolls its pending count back on that rejection, so a caller whose fan-out
// fails midway still wait()s for the tasks it already queued (their
// closures may reference the caller's frame) before rethrowing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mhhea::exec {

/// Resolve a user-facing parallelism knob (batch threads, executor size):
/// 0 picks hardware concurrency, >= 1 is taken as-is. The enforced
/// condition is >= 1 *after* the 0 resolution, so negative counts throw
/// std::invalid_argument saying exactly that.
[[nodiscard]] int resolve_parallelism(int n, const char* who);

class Executor {
 public:
  /// Spawns `n_workers` persistent workers (>= 1; std::invalid_argument
  /// otherwise — 0 is NOT resolved here, pass resolve_parallelism(0, ...)
  /// for hardware concurrency).
  explicit Executor(int n_workers);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Graceful drain: every already-submitted task runs to completion before
  /// the workers join.
  ~Executor();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Enqueue a task: onto the calling worker's own deque when invoked from
  /// an executor thread, onto the injection queue otherwise. Bare tasks must
  /// not throw (a throwing task terminates) — route exceptions through a
  /// TaskGroup. Throws std::runtime_error once shutdown has begun.
  void submit(std::function<void()> task);

  /// Pop-or-steal one queued task and run it on the calling thread. Returns
  /// false when every queue is empty (in-flight tasks may still be running
  /// on other threads). This is the helping primitive TaskGroup waiters use.
  bool try_run_one();

  /// The process-wide executor: hardware-concurrency workers, constructed on
  /// first use, alive for the rest of the process. This is the instance
  /// encrypt_batch and the server share so the whole process pays thread
  /// creation exactly once.
  static Executor& shared();

 private:
  struct TaskDeque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  /// One exhaustive pass: own deque (LIFO), injection queue, then steal
  /// (FIFO) from every other worker. `self` is npos for non-worker threads.
  bool pop_or_steal(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<TaskDeque>> worker_queues_;
  TaskDeque injection_;
  std::vector<std::thread> workers_;
  // Sleep/wake protocol: every submit bumps epoch_ under sleep_mu_, and a
  // worker only sleeps (or, during shutdown, exits) after a failed scan if
  // the epoch still equals what it read before scanning — so a submission
  // racing the scan forces a rescan and drain-on-shutdown can never strand
  // a task.
  std::mutex sleep_mu_;
  std::condition_variable wake_;
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
};

/// Fork-join task group over an Executor: run() submits, wait() joins and
/// rethrows the first task exception. Waiting helps (executes queued tasks),
/// so groups nest freely. The destructor joins outstanding tasks without
/// rethrowing — task closures may reference the owner's frame, so the group
/// never unwinds ahead of them.
class TaskGroup {
 public:
  explicit TaskGroup(Executor& ex) : ex_(ex) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() { drain(); }

  /// Submit one task into the group. The first exception a task throws is
  /// captured for wait(); later ones are dropped. If the executor rejects
  /// the submission (shutdown), the pending count is rolled back and the
  /// rejection rethrown — already-queued tasks are unaffected.
  void run(std::function<void()> fn) {
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    try {
      ex_.submit([this, f = std::move(fn)] {
        try {
          f();
        } catch (...) {
          std::lock_guard lock(mu_);
          if (first_error_ == nullptr) first_error_ = std::current_exception();
        }
        std::lock_guard lock(mu_);
        if (--pending_ == 0) done_.notify_all();
      });
    } catch (...) {
      std::lock_guard lock(mu_);
      --pending_;
      throw;
    }
  }

  /// Join every submitted task, then rethrow the first captured task
  /// exception (if any). Helps while waiting.
  void wait() {
    drain();
    std::exception_ptr err;
    {
      std::lock_guard lock(mu_);
      err = first_error_;
      first_error_ = nullptr;
    }
    if (err != nullptr) std::rethrow_exception(err);
  }

 private:
  void drain() noexcept {
    for (;;) {
      {
        std::lock_guard lock(mu_);
        if (pending_ == 0) return;
      }
      if (!ex_.try_run_one()) {
        // Every queue is empty, so the group's remaining tasks are running
        // on other threads right now — their completions signal done_.
        std::unique_lock lock(mu_);
        done_.wait(lock, [this] { return pending_ == 0; });
        return;
      }
    }
  }

  Executor& ex_;
  std::mutex mu_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace mhhea::exec
