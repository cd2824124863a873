#include "core/batch.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace eab::core {

/// A plain fixed-size worker pool: tasks queue under one mutex, run_all
/// blocks until every queued task has finished.
class BatchRunner::Pool {
 public:
  explicit Pool(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Enqueues every task and blocks until all have completed.
  void run_all(std::vector<std::function<void()>> tasks) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_ += tasks.size();
      for (auto& task : tasks) queue_.push_back(std::move(task));
    }
    work_ready_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [this] { return inflight_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--inflight_ == 0) batch_done_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

int BatchRunner::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

BatchRunner::BatchRunner(int jobs) : threads_(resolve_jobs(jobs)) {
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_);
}

BatchRunner::~BatchRunner() = default;

std::vector<std::optional<std::string>> BatchRunner::fan_out(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  // Each task writes only its own slot of `failures` (and of whatever output
  // fn fills); run_all's completion handshake publishes the writes.  No
  // exception escapes a worker, so the whole batch always completes.
  std::vector<std::optional<std::string>> failures(count);
  auto execute = [&](std::size_t index) {
    try {
      fn(index);
    } catch (const std::exception& e) {
      failures[index] = e.what();
    } catch (...) {
      failures[index] = "unknown exception";
    }
  };
  if (pool_) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back([&execute, i] { execute(i); });
    }
    pool_->run_all(std::move(tasks));
  } else {
    for (std::size_t i = 0; i < count; ++i) execute(i);
  }
  return failures;
}

void BatchRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (!fn) {
    throw std::invalid_argument("BatchRunner::run_indexed: empty function");
  }
  const auto failures = fan_out(count, fn);
  // Rethrow the lowest-index failure: deterministic no matter which worker
  // hit it first.
  for (std::size_t i = 0; i < count; ++i) {
    if (failures[i]) {
      throw std::runtime_error("BatchRunner::run_indexed: task " +
                               std::to_string(i) + " failed: " + *failures[i]);
    }
  }
}

std::vector<SingleLoadResult> BatchRunner::run(
    const std::vector<BatchJob>& jobs) {
  // A throwing load is quarantined in place: its slot stays
  // value-initialized and its failure text becomes a JobError.
  std::vector<SingleLoadResult> results(jobs.size());
  const auto failures = fan_out(jobs.size(), [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    results[i] =
        run_single_load(job.spec, job.config, job.reading_window, job.seed);
  });
  last_errors_.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (failures[i]) {
      last_errors_.push_back(JobError{i, *failures[i], jobs[i].seed});
    }
  }

  // Merge per-job registries in submission order (a quarantined job
  // contributes an empty registry).  The merge order — and with it the
  // snapshot — depends only on the job list, never on which worker finished
  // first.
  metrics_.count("batch.jobs", static_cast<double>(jobs.size()));
  metrics_.count("batch.quarantined",
                 static_cast<double>(last_errors_.size()));
  for (const SingleLoadResult& r : results) metrics_.merge(r.job_metrics);
  return results;
}

}  // namespace eab::core
