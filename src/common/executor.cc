#include "common/executor.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

namespace coverage {

int HardwareWorkers() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::max(1, CPU_COUNT(&cpus));
}

/// One Run call, on the caller's stack. Open (listed in open_) while fn(0)
/// runs and slots remain; the caller waits for `active` to reach 0 after
/// closing it, so no helper touches a finished job.
struct Executor::Job {
  const std::function<void(int)>* fn;
  int max_workers;
  int next_worker = 1;  // index the next joining helper gets
  int active = 0;       // helpers inside fn
  std::exception_ptr error;
  std::condition_variable done_cv;
};

Executor& Executor::Shared() {
  static Executor executor(HardwareWorkers() - 1);
  return executor;
}

Executor::Executor(int num_helpers)
    : num_helpers_(num_helpers > 0 ? num_helpers : 0) {}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int Executor::busy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return busy_;
}

void Executor::HelperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !open_.empty(); });
    if (shutdown_) return;
    Job* job = open_.front();
    const int worker = job->next_worker++;
    if (job->next_worker == job->max_workers) open_.erase(open_.begin());
    ++job->active;
    ++busy_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job->fn)(worker);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !job->error) job->error = error;
    --busy_;
    // Notified under the lock: the caller cannot return (and destroy the
    // job) before this helper lets go of mu_.
    if (--job->active == 0) job->done_cv.notify_one();
  }
}

void Executor::Run(int max_workers, const std::function<void(int)>& fn) {
  if (max_workers <= 1 || num_helpers_ == 0) {
    fn(0);
    return;
  }
  Job job{&fn, max_workers};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (threads_.empty()) {
      threads_.reserve(static_cast<std::size_t>(num_helpers_));
      for (int i = 0; i < num_helpers_; ++i) {
        threads_.emplace_back([this] { HelperLoop(); });
      }
    }
    open_.push_back(&job);
  }
  if (max_workers - 1 >= num_helpers_) {
    work_cv_.notify_all();
  } else {
    for (int i = 1; i < max_workers; ++i) work_cv_.notify_one();
  }

  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = std::find(open_.begin(), open_.end(), &job);
  if (it != open_.end()) open_.erase(it);
  job.done_cv.wait(lock, [&] { return job.active == 0; });
  if (!error) error = job.error;
  if (error) std::rethrow_exception(error);
}

void Executor::ParallelFor(std::size_t n, std::size_t chunk, int max_workers,
                           const std::function<void(int, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  if (chunks < static_cast<std::size_t>(std::max(max_workers, 1))) {
    max_workers = static_cast<int>(chunks);
  }
  std::atomic<std::size_t> next{0};
  Run(max_workers, [&](int worker) {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) fn(worker, i);
    }
  });
}

}  // namespace coverage
