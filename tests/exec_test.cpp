// Unit tests for the persistent FIFO executor (src/exec/):
//
//   * every task runs exactly once, even when several external threads
//     race their submissions (the TSan job checks the handoff);
//   * a single-worker executor runs tasks in submission order;
//   * drain-on-shutdown — the destructor completes every queued task before
//     joining, and submission after shutdown throws.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <latch>
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
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 250;
  std::vector<std::atomic<int>> hits(kSubmitters * kTasksEach);
  std::latch done(kSubmitters * kTasksEach);
  // Declared after what the tasks touch, so it joins before they go away.
  exec::Executor ex(4);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kTasksEach; ++i) {
        const auto slot = static_cast<std::size_t>(s * kTasksEach + i);
        ex.submit([&hits, &done, slot] {
          hits[slot].fetch_add(1);
          done.count_down();
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, RunsTasksInSubmissionOrderOnOneWorker) {
  constexpr int kTasks = 64;
  std::vector<int> order;  // written only by the single worker
  Gate gate;
  {
    exec::Executor ex(1);
    // Hold the worker so every task below is queued before any runs.
    ex.submit([&gate] { gate.wait(); });
    for (int i = 0; i < kTasks; ++i) ex.submit([&order, i] { order.push_back(i); });
    gate.open();
  }  // ~Executor drains and joins: `order` is complete and visible here
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
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

}  // namespace
}  // namespace mhhea
