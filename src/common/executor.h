#ifndef COVERAGE_COMMON_EXECUTOR_H_
#define COVERAGE_COMMON_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coverage {

/// CPUs this process may run on (sched_getaffinity, so taskset and cpuset
/// limits count, as `nproc` reports them); always >= 1. The one place the
/// hardware is asked how wide it is.
int HardwareWorkers();

/// The process-wide fork-join pool behind every parallel search and batched
/// query: HardwareWorkers() - 1 helper threads, spawned on the first
/// parallel Run. The calling thread is always worker 0, so a request never
/// needs a helper to make progress.
///
///   Run(max_workers, fn)             — fn(0) runs on the caller; idle
///                                      helpers join as workers 1.. up to
///                                      max_workers - 1, but only while
///                                      fn(0) is still running.
///   ParallelFor(n, chunk, max, fn)   — indices [0, n) handed out in chunks
///                                      to whichever workers joined.
///
/// Both return once every worker that joined has returned, and rethrow the
/// first exception raised. There is no queue of closures: a caller waits
/// only for helpers already running its job, never for work nobody has
/// started. So nested use (a search inside a request inside a batch) and
/// concurrent use cannot deadlock, and a caller that finds every helper
/// busy simply runs its whole job inline. `max_workers` caps one call's
/// parallelism; the helper count caps the process, so concurrent callers
/// never oversubscribe the CPUs.
///
/// A job must not assume how many workers join: that is anything from 1 to
/// max_workers, decided at run time.
class Executor {
 public:
  /// The shared instance, sized HardwareWorkers() - 1.
  static Executor& Shared();

  /// A private pool of `num_helpers` threads (tests); <= 0 means none.
  explicit Executor(int num_helpers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Helper threads (spawned or still to be spawned); the caller is extra.
  int num_helpers() const { return num_helpers_; }

  /// Helpers inside a job right now.
  int busy() const;

  void Run(int max_workers, const std::function<void(int)>& fn);

  /// Invokes `fn(worker, index)` exactly once for every index in [0, n),
  /// `chunk` consecutive indices at a time.
  void ParallelFor(std::size_t n, std::size_t chunk, int max_workers,
                   const std::function<void(int, std::size_t)>& fn);

 private:
  struct Job;

  void HelperLoop();

  const int num_helpers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // helpers wait here for an open job
  std::vector<Job*> open_;           // jobs with worker slots left, oldest first
  std::vector<std::thread> threads_;  // empty until the first parallel Run
  int busy_ = 0;
  bool shutdown_ = false;
};

}  // namespace coverage

#endif  // COVERAGE_COMMON_EXECUTOR_H_
