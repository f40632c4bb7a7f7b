// The process-wide Executor: inline execution at one worker, exactly-once
// index coverage, exception propagation, nested and concurrent use without
// deadlock, a process-wide cap on running workers, and HardwareWorkers()
// honouring the CPU affinity mask.

#include "common/executor.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coverage {
namespace {

/// Spins until `done()` holds or five seconds pass; returns done().
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return done();
}

TEST(Executor, SharedIsSizedToTheHardware) {
  EXPECT_EQ(Executor::Shared().num_helpers(), HardwareWorkers() - 1);
  EXPECT_EQ(Executor(0).num_helpers(), 0);
  EXPECT_EQ(Executor(-3).num_helpers(), 0);
}

TEST(Executor, OneWorkerRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  Executor three(3);
  for (Executor* executor : {&Executor::Shared(), &three}) {
    int calls = 0;
    executor->Run(1, [&](int worker) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, 1);
    executor->ParallelFor(10, 1, 1, [&](int worker, std::size_t) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
  // No helpers at all: any width runs inline.
  Executor none(0);
  none.Run(8, [&](int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce) {
  Executor executor(3);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 16u, 17u, 1000u}) {
    for (const std::size_t chunk : {0u, 1u, 3u, 16u}) {
      for (const int workers : {1, 2, 4, 8}) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<bool> bad_worker{false};
        executor.ParallelFor(n, chunk, workers,
                             [&](int worker, std::size_t i) {
                               if (worker < 0 || worker >= workers) {
                                 bad_worker = true;
                               }
                               hits[i].fetch_add(1);
                             });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " chunk=" << chunk
                                       << " workers=" << workers
                                       << " i=" << i;
        }
        EXPECT_FALSE(bad_worker.load());
      }
    }
  }
}

TEST(Executor, WorkerIndicesAreDistinctWithinOneRun) {
  Executor executor(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> seen(8);
    executor.Run(8, [&](int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, 8);
      seen[static_cast<std::size_t>(worker)].fetch_add(1);
    });
    EXPECT_EQ(seen[0].load(), 1);
    for (const auto& s : seen) EXPECT_LE(s.load(), 1);
  }
}

TEST(Executor, FirstExceptionPropagates) {
  Executor executor(3);
  EXPECT_THROW(executor.ParallelFor(1000, 1, 4,
                                    [](int, std::size_t i) {
                                      if (i == 500) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
  // Thrown on the caller's own worker too.
  EXPECT_THROW(executor.Run(4,
                            [](int worker) {
                              if (worker == 0) throw std::logic_error("w0");
                            }),
               std::logic_error);
  // The executor stays usable afterwards.
  std::atomic<int> sum{0};
  executor.ParallelFor(100, 1, 4, [&](int, std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 100);
}

TEST(Executor, NestedParallelForFromManyThreadsCompletes) {
  // Eight plain threads each run an outer ParallelFor whose body runs an
  // inner ParallelFor: helpers end up waiting inside nested jobs while other
  // callers want them. Nothing waits for unstarted work, so all finish.
  constexpr int kThreads = 8;
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::atomic<std::uint64_t> sum{0};
      Executor::Shared().ParallelFor(kOuter, 1, 4, [&](int, std::size_t o) {
        Executor::Shared().ParallelFor(
            kInner, 4, 4, [&](int, std::size_t i) {
              sum.fetch_add(o * kInner + i, std::memory_order_relaxed);
            });
      });
      sums[static_cast<std::size_t>(t)] = sum.load();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::uint64_t n = kOuter * kInner;
  for (const std::uint64_t sum : sums) EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(Executor, WideRequestNeverRunsMoreWorkersThanHelpersPlusCaller) {
  // An explicit width far above the CPU count must not oversubscribe: the
  // peak number of workers inside the job is the helper count plus the
  // caller, however wide the request.
  Executor three(3);
  for (Executor* executor : {&Executor::Shared(), &three}) {
    const int cap = executor->num_helpers() + 1;
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    executor->Run(64, [&](int) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      // Every worker stays until all helpers had the chance to join, so the
      // peak is actually reached.
      WaitFor([&] { return peak.load() >= cap; });
      running.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), cap);
    EXPECT_EQ(peak.load(), cap);
  }
}

TEST(Executor, SaturatedExecutorRunsNewCallersInline) {
  Executor executor(2);
  std::latch release(1);
  std::atomic<int> held{0};
  std::thread holder([&] {
    executor.Run(3, [&](int) {
      held.fetch_add(1);
      release.wait();
    });
  });
  ASSERT_TRUE(WaitFor([&] { return held.load() == 3; }));
  EXPECT_EQ(executor.busy(), 2);

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::atomic<int> done{0};
  executor.ParallelFor(100, 1, 8, [&](int, std::size_t) {
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(off_caller.load(), 0);

  release.count_down();
  holder.join();
  EXPECT_EQ(executor.busy(), 0);
}

TEST(HardwareWorkers, FollowsTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(HardwareWorkers(), CPU_COUNT(&original));

  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &original)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(HardwareWorkers(), 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(HardwareWorkers(), CPU_COUNT(&original));
}

}  // namespace
}  // namespace coverage
