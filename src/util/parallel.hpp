// Deterministic parallel sweep engine.
//
// Every headline experiment (bandwidth-utilization sweeps, failure-congestion
// searches, Monte-Carlo availability studies) is an embarrassingly parallel
// loop over independent trials.  This module provides the one primitive they
// all share: a small persistent thread pool with `parallel_for` /
// `parallel_reduce`, plus per-task RNG seeding so every result is
// *bit-identical at any thread count*.
//
// Determinism contract:
//   * Task bodies receive only their task index (and a stable worker index
//     for scratch-space reuse); any randomness must come from
//     `Rng{task_seed(base_seed, task_index)}`, never from a shared stream.
//   * `parallel_reduce` folds per-task values in ascending task order, so
//     floating-point accumulation order — and therefore the result — does
//     not depend on the thread count or on scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace lp::util {

/// A fixed-size pool of worker threads.  `threads == 1` runs everything
/// inline on the calling thread (no workers are spawned), which is also the
/// fallback when hardware concurrency is unknown.
class ThreadPool {
 public:
  /// `threads == 0` means one thread per hardware thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution streams, including the calling thread.
  [[nodiscard]] unsigned size() const { return worker_count_ + 1; }

  /// Runs `fn(task, worker)` for every task in [0, n).  `worker` is in
  /// [0, size()) and identifies the executing stream, so callers can keep one
  /// scratch workspace per worker.  The call blocks until all tasks finish;
  /// the calling thread participates as worker 0.  Task bodies must not
  /// throw; nested run() calls on the same pool, and calls from other
  /// threads while a job is in flight, execute inline on the calling
  /// thread (worker index 0).
  void run(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn);

  /// The process-wide default pool (sized to hardware concurrency).
  static ThreadPool& shared();

 private:
  void worker_loop(unsigned worker);

  struct State;
  State* state_;
  unsigned worker_count_;
};

/// Thread-count override from the LIGHTPATH_THREADS environment variable.
/// Returns the parsed positive value, or 0 (meaning "use hardware
/// concurrency") when the variable is unset, empty, or unparsable.  Sweep
/// entry points consult this when the caller leaves the count at 0, so
/// `LIGHTPATH_THREADS=1` / `=8` can exercise the bit-identity contract
/// without recompiling.
[[nodiscard]] unsigned env_threads();

/// Derives the RNG seed for one task of a sweep.  The mix is a fixed
/// splitmix64-style hash of (base_seed, task_index): it depends on nothing
/// but those two values, so a task draws the same stream no matter which
/// worker runs it or how many workers exist.
[[nodiscard]] std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// parallel_for over [0, n) on `pool` (default: the shared pool).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

/// The pool a sweep of `threads` streams runs on.  The count resolves as:
/// the caller's value, else LIGHTPATH_THREADS (env_threads), else the
/// shared pool.  A pool built for the call is emplaced in `local`, which
/// must outlive its use.  Every sweep entry point resolves its pool here,
/// so one environment override reaches all of them.
[[nodiscard]] ThreadPool& resolve_pool(unsigned threads,
                                       std::optional<ThreadPool>& local);

/// Runs `fn(task)` for every task in [0, n) on resolve_pool(threads).
void run_tasks(unsigned threads, std::size_t n,
               const std::function<void(std::size_t)>& fn);

/// A paired two-arm sweep over `points` x 2 arms x `trials`.  Both arms of
/// point p, trial t run with seed task_seed(base_seed, p * trials + t), so
/// they face identical random streams — a paired comparison.  The report of
/// `run(p, arm, seed)` lands at index (p * 2 + arm) * trials + t: callers
/// fold ascending, bit-identical at any thread count.
template <typename Report, typename Run>
[[nodiscard]] std::vector<Report> paired_sweep(std::size_t points, std::size_t trials,
                                               std::uint64_t base_seed, unsigned threads,
                                               Run&& run) {
  std::vector<Report> reports(points * 2 * trials);
  run_tasks(threads, reports.size(), [&](std::size_t idx) {
    const std::size_t t = idx % trials;
    const std::size_t p = idx / trials / 2;
    const std::size_t arm = idx / trials % 2;
    reports[idx] = run(p, arm, task_seed(base_seed, p * trials + t));
  });
  return reports;
}

/// Maps every task index to a value and folds the values in ascending task
/// order: `acc = reduce(acc, map(i))` for i = 0..n-1.  The map runs in
/// parallel; the fold is sequential over the buffered per-task values, so
/// the result is identical at any thread count.
template <typename T, typename Map, typename Reduce>
[[nodiscard]] T parallel_reduce(std::size_t n, T init, Map&& map, Reduce&& reduce,
                                ThreadPool* pool = nullptr) {
  std::vector<T> values(n, init);
  parallel_for(
      n, [&](std::size_t i) { values[i] = map(i); }, pool);
  T acc = std::move(init);
  for (std::size_t i = 0; i < n; ++i) acc = reduce(std::move(acc), std::move(values[i]));
  return acc;
}

}  // namespace lp::util
