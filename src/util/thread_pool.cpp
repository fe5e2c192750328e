#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/obs.hpp"

namespace pimsched {

namespace {
// Set while a thread runs ThreadPool::workerLoop; lets parallelFor detect
// nested use from inside a task and fall back to an inline loop.
thread_local const ThreadPool* tlsWorkerOf = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
#ifndef PIMSCHED_NO_OBS
  // Workers bump pool.* counters on their idle paths, which also run while
  // the destructor drains them during static teardown (the global pool is
  // itself a function-local static). Resolving a counter here forces BOTH
  // registry statics — Registry::instance() AND the lazily-built Impl that
  // owns the metric storage — to finish construction before this
  // constructor completes, so static teardown destroys them only after the
  // workers are joined. Touching instance() alone is not enough: Impl is a
  // separate function-local static, first built by counter()/timer().
  obs::Registry::instance().counter("pool.contention.steal_fails");
  obs::Registry::instance().counter("pool.contention.sleeps");
#endif
  if (workers == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    workers = std::max(1u, hw - 1);
  }
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(sleepMutex_);
  }
  sleepCv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {  // degenerate pool: execute inline
    task();
    return;
  }
  const unsigned q = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                     static_cast<unsigned>(queues_.size());
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_seq_cst);
  {
    // Empty critical section: pairs with the pending_ check a worker makes
    // under sleepMutex_ before waiting, so this notify cannot be lost.
    std::lock_guard<std::mutex> lock(sleepMutex_);
  }
  sleepCv_.notify_one();
}

bool ThreadPool::insidePool() const { return tlsWorkerOf == this; }

bool ThreadPool::tryPop(unsigned self, std::function<void()>& task) {
  const auto popFrom = [&](Queue& q) {
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) return false;
    task = std::move(q.tasks.front());
    q.tasks.pop_front();
    return true;
  };
  if (popFrom(*queues_[self])) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    if (popFrom(*queues_[(self + k) % n])) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      PIMSCHED_COUNTER_ADD("pool.steals", 1);
      return true;
    }
  }
  // A full sweep over every sibling queue found nothing — the worker
  // burned a lock acquisition per queue for no task.
  PIMSCHED_COUNTER_ADD("pool.contention.steal_fails", 1);
  return false;
}

void ThreadPool::workerLoop(unsigned self) {
  tlsWorkerOf = this;
  while (true) {
    std::function<void()> task;
    if (tryPop(self, task)) {
      PIMSCHED_COUNTER_ADD("pool.tasks", 1);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleepMutex_);
    if (stop_.load(std::memory_order_seq_cst)) break;
    if (pending_.load(std::memory_order_seq_cst) > 0) continue;
    PIMSCHED_COUNTER_ADD("pool.contention.sleeps", 1);
    sleepCv_.wait(lock);
  }
  // Drain anything still queued so a submitted task is never dropped.
  std::function<void()> task;
  while (tryPop(self, task)) task();
  tlsWorkerOf = nullptr;
}

void parallelFor(std::int64_t n, unsigned threads,
                 const std::function<void(std::int64_t)>& body) {
  if (n <= 0) return;
  // threads == 1 and n == 1 short-circuit before ThreadPool::global(), so
  // a single-threaded caller never constructs the pool.
  if (threads == 1 || n == 1 || ThreadPool::global().insidePool()) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (threads == 0) threads = pool.workers() + 1;
  PIMSCHED_COUNTER_ADD("pool.parallel_for", 1);

  // Shared chunk dispenser: every executor (helpers + caller) pulls the
  // next chunk of iterations, which is the work-stealing that balances
  // uneven per-item cost.
  struct Shared {
    // The chunk dispenser is the one word every executor contends on;
    // keep it off the line holding the cold failure/join state.
    alignas(64) std::atomic<std::int64_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorMutex;
    std::atomic<unsigned> liveHelpers{0};
    std::mutex doneMutex;
    std::condition_variable doneCv;
  };
  const auto shared = std::make_shared<Shared>();
  const std::int64_t grain =
      std::max<std::int64_t>(1, n / (4 * static_cast<std::int64_t>(threads)));

  const auto run = [shared, n, grain, &body] {
    while (!shared->failed.load(std::memory_order_relaxed)) {
      const std::int64_t begin =
          shared->next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::int64_t end = std::min(begin + grain, n);
      try {
        for (std::int64_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->errorMutex);
        if (!shared->error) shared->error = std::current_exception();
        shared->failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };

  const unsigned helpers = static_cast<unsigned>(std::min<std::int64_t>(
      {static_cast<std::int64_t>(threads) - 1,
       static_cast<std::int64_t>(pool.workers()), n - 1}));
  shared->liveHelpers.store(helpers, std::memory_order_relaxed);
  for (unsigned h = 0; h < helpers; ++h) {
    pool.submit([shared, run] {
      run();
      if (shared->liveHelpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(shared->doneMutex);
        shared->doneCv.notify_all();
      }
    });
  }
  run();
  {
    std::unique_lock<std::mutex> lock(shared->doneMutex);
    shared->doneCv.wait(lock, [&] {
      return shared->liveHelpers.load(std::memory_order_acquire) == 0;
    });
  }
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace pimsched
