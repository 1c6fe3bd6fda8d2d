#include "src/exec/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mhhea::exec {

Executor::Executor(int n_workers) {
  if (n_workers < 1) throw std::invalid_argument("Executor: need >= 1 worker");
  workers_.reserve(static_cast<std::size_t>(n_workers));
  try {
    for (int i = 0; i < n_workers; ++i) workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Thread creation failed partway: the workers already running must be
    // joined, or destroying workers_ terminates the process.
    stop_and_join();
    throw;
  }
}

Executor::~Executor() { stop_and_join(); }

void Executor::stop_and_join() noexcept {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::submit(std::function<void()> task) {
  {
    // The stopping check and the push share one critical section: a task is
    // either rejected or queued before the workers see stopping_, so
    // drain-on-shutdown cannot strand it.
    std::lock_guard lock(mu_);
    if (stopping_) throw std::runtime_error("Executor: submit after shutdown");
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and every queued task has run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

Executor& Executor::shared() {
  static Executor instance(static_cast<int>(std::max(1U, std::thread::hardware_concurrency())));
  return instance;
}

}  // namespace mhhea::exec
