#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kTasks = 257;  // not a multiple of the worker count
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t task, unsigned worker) {
    EXPECT_LT(worker, pool.size());
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.run(16, [&](std::size_t, unsigned worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    ++ran;  // safe: everything is on the calling thread
  });
  EXPECT_EQ(ran, 16u);
}

TEST(ThreadPool, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool{2};
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t, unsigned) {
    // A task body that itself sweeps on the same pool must not deadlock:
    // the nested run executes inline on the current task's thread.
    pool.run(4, [&](std::size_t, unsigned worker) {
      EXPECT_EQ(worker, 0u);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(ThreadPool, ConcurrentCallersEachRunTheirOwnJob) {
  // Several threads may call run() on one pool at once: the shared pool has
  // no single owner.  Each call must run its own tasks, each exactly once,
  // and return.
  ThreadPool pool{4};
  constexpr int kCallers = 4;
  constexpr int kRounds = 300;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(2 + (7 * c + r) % 31));
        pool.run(hits.size(), [&](std::size_t task, unsigned) {
          if (task < hits.size()) {
            hits[task].fetch_add(1, std::memory_order_relaxed);
          } else {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (const auto& h : hits) {
          if (h.load() != 1) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool{3};
  bool called = false;
  pool.run(0, [&](std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TaskSeed, PureAndDistinct) {
  // Same inputs, same seed — no hidden state.
  EXPECT_EQ(task_seed(42, 7), task_seed(42, 7));
  // Neighboring tasks and neighboring base seeds decorrelate.
  EXPECT_NE(task_seed(42, 7), task_seed(42, 8));
  EXPECT_NE(task_seed(42, 7), task_seed(43, 7));
  // A window of task indices yields all-distinct seeds.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(task_seed(0xfa11, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ParallelFor, CoversRangeOnSharedPool) {
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> hits(kTasks);
  parallel_for(kTasks,
               [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Every sweep resolves its pool through resolve_pool, so LIGHTPATH_THREADS
// reaches all of them: a count of 0 takes the variable, an explicit count
// overrides it, and with the variable unset the shared pool serves.
TEST(ResolvePool, ZeroThreadsFollowsLightpathThreads) {
  const char* outer = std::getenv("LIGHTPATH_THREADS");
  const std::optional<std::string> saved =
      outer != nullptr ? std::optional<std::string>{outer} : std::nullopt;

  ASSERT_EQ(setenv("LIGHTPATH_THREADS", "3", 1), 0);
  {
    std::optional<ThreadPool> local;
    const ThreadPool& pool = resolve_pool(0, local);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(&pool, &*local);
    EXPECT_EQ(pool.size(), 3u);
  }
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(resolve_pool(2, local).size(), 2u);
  }

  // One stream: run_tasks executes every task on the calling thread.
  ASSERT_EQ(setenv("LIGHTPATH_THREADS", "1", 1), 0);
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(resolve_pool(0, local).size(), 1u);
  }
  const auto caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  run_tasks(0, 64, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);

  ASSERT_EQ(unsetenv("LIGHTPATH_THREADS"), 0);
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(&resolve_pool(0, local), &ThreadPool::shared());
    EXPECT_FALSE(local.has_value());
  }

  if (saved) {
    ASSERT_EQ(setenv("LIGHTPATH_THREADS", saved->c_str(), 1), 0);
  }
}

// The determinism contract: a floating-point reduction whose per-task values
// come from task_seed folds to the exact same bits at every thread count.
TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kTasks = 512;
  const auto map = [](std::size_t i) {
    Rng rng{task_seed(0x5eed, i)};
    return rng.uniform(0.0, 1.0) / static_cast<double>(i + 1);
  };
  const auto sum = [](double acc, double v) { return acc + v; };

  ThreadPool one{1};
  const double serial = parallel_reduce(kTasks, 0.0, map, sum, &one);
  for (unsigned threads : {2u, 3u, 5u, 8u}) {
    ThreadPool pool{threads};
    const double parallel = parallel_reduce(kTasks, 0.0, map, sum, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;  // bit-identical
  }
}

// Fold order is part of the contract: a non-commutative reduce sees values
// in ascending task order regardless of which worker produced them.
TEST(ParallelReduce, FoldsInAscendingTaskOrder) {
  ThreadPool pool{4};
  const std::string joined = parallel_reduce(
      std::size_t{10}, std::string{},
      [](std::size_t i) { return std::to_string(i); },
      [](std::string acc, std::string v) { return acc + v; }, &pool);
  EXPECT_EQ(joined, "0123456789");
}

// --- paired_sweep: the runner behind every two-arm sweep -----------------

struct Cell {
  std::size_t point{0};
  std::size_t arm{0};
  std::uint64_t seed{0};
};

TEST(PairedSweep, IndexLayoutAndSeedPairing) {
  constexpr std::size_t kPoints = 3;
  constexpr std::size_t kTrials = 4;
  const std::vector<Cell> cells = paired_sweep<Cell>(
      kPoints, kTrials, 99, 2, [](std::size_t p, std::size_t arm, std::uint64_t seed) {
        return Cell{p, arm, seed};
      });
  ASSERT_EQ(cells.size(), kPoints * 2 * kTrials);
  for (std::size_t p = 0; p < kPoints; ++p) {
    for (std::size_t arm = 0; arm < 2; ++arm) {
      for (std::size_t t = 0; t < kTrials; ++t) {
        const Cell& c = cells[(p * 2 + arm) * kTrials + t];
        EXPECT_EQ(c.point, p);
        EXPECT_EQ(c.arm, arm);
        EXPECT_EQ(c.seed, task_seed(99, p * kTrials + t))
            << "both arms of (point, trial) share one seed";
      }
    }
  }
}

TEST(PairedSweep, IdenticalAtAnyThreadCount) {
  // Unequal per-task work so workers finish out of order.
  const auto run = [](std::size_t p, std::size_t arm, std::uint64_t seed) {
    Rng rng{seed};
    double acc = 0.0;
    for (std::size_t i = 0; i < 500 * (p + 1) + 37 * arm; ++i) acc += rng.normal();
    return acc;
  };
  const std::vector<double> serial = paired_sweep<double>(5, 3, 7, 1, run);
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_EQ(paired_sweep<double>(5, 3, 7, threads, run), serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace lp::util
