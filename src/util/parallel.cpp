#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace lp::util {

struct ThreadPool::State {
  /// Set by the one run() whose job the fields below describe.
  std::atomic<bool> busy{false};
  std::mutex mutex;
  std::condition_variable wake;      ///< workers wait here for a job
  std::condition_variable done;      ///< the caller waits here for completion
  const std::function<void(std::size_t, unsigned)>* job{nullptr};
  std::size_t job_size{0};
  std::uint64_t generation{0};       ///< bumped per job so workers see new work
  std::atomic<std::size_t> next{0};  ///< next unclaimed task index
  unsigned active{0};                ///< workers still draining the job
  bool stopping{false};
  std::vector<std::thread> threads;
};

ThreadPool::ThreadPool(unsigned threads) : state_{new State} {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  worker_count_ = threads - 1;
  state_->threads.reserve(worker_count_);
  for (unsigned w = 0; w < worker_count_; ++w) {
    state_->threads.emplace_back([this, w] { worker_loop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{state_->mutex};
    state_->stopping = true;
  }
  state_->wake.notify_all();
  for (auto& t : state_->threads) t.join();
  delete state_;
}

namespace {
/// The pool this thread is currently executing inside (as a worker or as a
/// caller participating in run()).  Nested run() calls on the same pool
/// degrade to inline execution instead of corrupting the in-flight job.
thread_local const ThreadPool* t_inside_pool = nullptr;
}  // namespace

void ThreadPool::run(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn) {
  if (n == 0) return;
  // The job fields serve one caller at a time: a run() that finds another
  // job in flight, another thread's or an outer one of its own, executes
  // inline, as a nested call does.
  bool idle = false;
  if (worker_count_ == 0 || n == 1 || t_inside_pool == this ||
      !state_->busy.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    const std::lock_guard lock{state_->mutex};
    state_->job = &fn;
    state_->job_size = n;
    state_->next.store(0, std::memory_order_relaxed);
    state_->active = worker_count_;
    ++state_->generation;
  }
  state_->wake.notify_all();
  // The caller participates as worker 0.
  const ThreadPool* const outer = t_inside_pool;
  t_inside_pool = this;
  for (;;) {
    const std::size_t i = state_->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    fn(i, 0);
  }
  t_inside_pool = outer;
  std::unique_lock lock{state_->mutex};
  state_->done.wait(lock, [&] { return state_->active == 0; });
  state_->job = nullptr;
  state_->busy.store(false, std::memory_order_release);
}

void ThreadPool::worker_loop(unsigned worker) {
  t_inside_pool = this;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t, unsigned)>* job;
    std::size_t n;
    {
      std::unique_lock lock{state_->mutex};
      state_->wake.wait(lock, [&] {
        return state_->stopping || (state_->job != nullptr && state_->generation != seen);
      });
      if (state_->stopping) return;
      seen = state_->generation;
      job = state_->job;
      n = state_->job_size;
    }
    for (;;) {
      const std::size_t i = state_->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*job)(i, worker);
    }
    {
      const std::lock_guard lock{state_->mutex};
      --state_->active;
    }
    state_->done.notify_one();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

unsigned env_threads() {
  const char* raw = std::getenv("LIGHTPATH_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || v == 0 || v > 4096) return 0;
  return static_cast<unsigned>(v);
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 finalizer over the pair; any fixed mix works, it just has to
  // be a pure function of (base_seed, task_index).
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool) {
  if (pool == nullptr) pool = &ThreadPool::shared();
  pool->run(n, [&](std::size_t i, unsigned) { fn(i); });
}

ThreadPool& resolve_pool(unsigned threads, std::optional<ThreadPool>& local) {
  if (threads == 0) threads = env_threads();
  return threads == 0 ? ThreadPool::shared() : local.emplace(threads);
}

void run_tasks(unsigned threads, std::size_t n,
               const std::function<void(std::size_t)>& fn) {
  std::optional<ThreadPool> local;
  parallel_for(n, fn, &resolve_pool(threads, local));
}

}  // namespace lp::util
