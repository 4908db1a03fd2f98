#include "parallel/thread_pool.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/counters.h"
#include "obs/trace.h"

namespace pfact::par {

namespace {

// A chunk claim is one bit of a 64-bit word, so a sweep has at most 64
// chunks (pools larger than that leave the extra workers to tasks).
constexpr std::size_t kMaxChunks = 64;
constexpr std::size_t kNoChunk = kMaxChunks;

// How long an idle lane worker watches for the next sweep before parking.
// An elimination step's sequential part (pivot search, row swap) takes a
// few microseconds, so this keeps workers hot across a whole
// factorization and lets them sleep soon after it ends.
constexpr auto kSpinFor = std::chrono::microseconds(50);

// Pause-spins before a waiter starts yielding its core.
constexpr unsigned kPauseSpins = 64;

// Set on pool workers (nested parallel_for calls run inline, or they would
// wait on the pool they occupy) and on a caller while it runs chunks of
// its own sweep (a nested call from its lane runs inline for the same
// reason).
thread_local bool g_in_pool_worker = false;
thread_local bool g_in_sweep = false;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits for `done()`: a few pause-spins, then sched_yield — which hands the
// core to a pool thread that shares it and costs one syscall when none
// does — then short naps, so a wait behind a blocked pool burns no core.
template <class Done>
void wait_until(Done done) {
  for (unsigned spins = 0; !done(); ++spins) {
    if (spins < kPauseSpins) {
      cpu_relax();
    } else if (spins < kPauseSpins + 4096) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

// The core the calling thread runs on, or -1 where that is unknown.
int current_core() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// Moves a lane worker onto the lane-th allowed core after `home`, the core
// its pool was created on. A new thread starts on its creator's core, and
// a scheduler that does not balance load (a cpuset with load balancing
// off) never moves a busy one, so every lane would share that core. The
// thread is pinned only for the move: its full mask comes straight back,
// and a balancing scheduler stays free to migrate it later.
void start_on_own_core(std::size_t lane, int home) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0) {
    return;
  }
  std::vector<int> cores;
  std::size_t base = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (c == home) base = cores.size();
    cores.push_back(c);
  }
  if (cores.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cores[(base + lane) % cores.size()], &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0) {
    // Should the restore fail, the worker stays pinned to its core: slower
    // to adapt to load, still correct.
    pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
  }
#else
  (void)lane;
  (void)home;
#endif
}

}  // namespace

// One parallel_for in flight. Lives on the caller's stack; workers reach it
// through ThreadPool::sweep_ only while they are counted in users_.
struct ThreadPool::Sweep {
  Sweep(std::size_t begin, std::size_t n, std::size_t chunks,
        detail::ChunkFn chunk, void* body, const CancellationToken* token)
      : begin(begin), n(n), chunks(chunks), chunk(chunk), body(body),
        stop{failed, token}, remaining(chunks) {}

  const std::size_t begin;
  const std::size_t n;
  const std::size_t chunks;
  const detail::ChunkFn chunk;
  void* const body;
  std::atomic<bool> failed{false};
  const detail::StopFlag stop;
  std::atomic<std::uint64_t> claimed{0};  // bit c: chunk c is taken
  std::atomic<std::size_t> remaining;     // counting latch over chunks
  std::atomic<bool> picked_up{false};     // a worker has joined
  // Slot c is written only by the thread that ran chunk c, before its
  // release decrement of `remaining`; read by the caller after the latch.
  std::array<std::exception_ptr, kMaxChunks> errors{};

  // Chunk c covers [lo(c), lo(c + 1)): balanced to within one iteration.
  std::size_t lo(std::size_t c) const { return begin + c * n / chunks; }

  bool claim(std::size_t c) {
    const std::uint64_t bit = std::uint64_t{1} << c;
    return (claimed.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0;
  }

  // Lane `home` takes its own chunk first, then any chunk still unclaimed.
  std::size_t next(std::size_t home) {
    if (home < chunks && claim(home)) return home;
    const std::uint64_t all =
        chunks == kMaxChunks ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << chunks) - 1;
    for (;;) {
      const std::uint64_t open =
          ~claimed.load(std::memory_order_relaxed) & all;
      if (open == 0) return kNoChunk;
      const std::size_t c = static_cast<std::size_t>(std::countr_zero(open));
      if (claim(c)) return c;
    }
  }

  void run(std::size_t c) {
    PFACT_COUNT(kPoolChunksRun);
    PFACT_SPAN("pool.chunk");
    if (!stop()) {
      try {
        chunk(body, lo(c), lo(c + 1), stop);
      } catch (...) {
        errors[c] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  }

  void work(std::size_t home) {
    for (std::size_t c = next(home); c != kNoChunk; c = next(home)) run(c);
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  lanes_ = std::min(std::max<std::size_t>(2, threads), kMaxChunks);
  workers_.reserve(threads);
  const int home = current_core();
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, home] {
      if (i + 1 < lanes_) start_on_own_core(i + 1, home);
      worker_loop(i + 1);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Post-join the queue is empty: workers drain it before exiting, so no
  // packaged_task is ever destroyed unrun (which would surface to waiters
  // as an unexplained broken_promise instead of the task's real outcome).
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    MutexLock lock(mu_);
    if (stop_) {
      throw std::runtime_error(
          "ThreadPool::submit: pool is shutting down; the task would never "
          "run and its future would never resolve");
    }
    queue_.push(std::move(pt));
  }
  PFACT_COUNT(kPoolTasksSubmitted);
  cv_.notify_one();
  return fut;
}

std::size_t ThreadPool::drain_pending() {
  std::size_t drained = 0;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // inline on the caller; exceptions land in the task's future
    ++drained;
  }
  return drained;
}

void ThreadPool::worker_loop(std::size_t lane) {
  g_in_pool_worker = true;
  const bool sweeps = lane < lanes_;
  // Generation 0 is the pool's birth: a sweep published before this thread
  // first runs must still look new to it.
  std::uint64_t seen = 0;
  for (;;) {
    if (sweeps) {
      // Watch for the next sweep, yielding so a caller that shares this
      // core keeps running, then park.
      const auto until = std::chrono::steady_clock::now() + kSpinFor;
      for (unsigned i = 0; generation_.load(std::memory_order_acquire) == seen;
           ++i) {
        if (i < kPauseSpins) {
          cpu_relax();
        } else if (std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        } else {
          break;
        }
      }
    }
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      if (sweeps) parked_.fetch_add(1);
      // Plain wait loop (no predicate lambda): the guarded reads of stop_
      // and queue_ stay in this function's body, where the thread-safety
      // analysis can see the held capability. parked_ is raised before the
      // generation check, and publish() bumps the generation before it
      // reads parked_, so a sweep can never slip past a parking worker.
      while (!stop_ && queue_.empty() &&
             (!sweeps || generation_.load() == seen)) {
        lock.wait(cv_);
      }
      if (sweeps) parked_.fetch_sub(1);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      } else if (stop_) {
        return;
      }
    }
    if (task.valid()) {
      task();  // exceptions are captured into the task's future
      continue;
    }
    seen = generation_.load(std::memory_order_acquire);
    users_.fetch_add(1);
    if (Sweep* s = sweep_.load()) {
      s->picked_up.store(true, std::memory_order_release);
      s->work(lane);
    }
    users_.fetch_sub(1, std::memory_order_release);
  }
}

bool ThreadPool::publish(Sweep* s) {
  Sweep* none = nullptr;
  if (!sweep_.compare_exchange_strong(none, s)) return false;
  generation_.fetch_add(1);
  if (parked_.load() > 0) {
    MutexLock lock(mu_);
    cv_.notify_all();
  }
  return true;
}

void ThreadPool::retire() {
  sweep_.store(nullptr);
  // A worker that loaded the sweep is counted in users_ until it lets go;
  // once the count drains, no thread can reach the caller's descriptor.
  wait_until([this] { return users_.load() == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace detail {

ParallelOutcome sweep(std::size_t begin, std::size_t end, std::size_t grain,
                      ChunkFn chunk, void* body, ThreadPool* pool,
                      const CancellationToken* token) {
  ParallelOutcome out;
  if (begin >= end) return out;
  PFACT_COUNT(kParallelForCalls);
  PFACT_SPAN("parallel_for");
  const std::size_t n = end - begin;
  // Two chunks of at least `grain` iterations, or the range runs inline.
  const std::size_t fit = n / std::max<std::size_t>(1, grain);
  const bool split = fit >= 2 && !g_in_pool_worker && !g_in_sweep;
  if (split && pool == nullptr) pool = &ThreadPool::global();
  const std::size_t chunks = split ? std::min(pool->lanes(), fit) : 1;
  ThreadPool::Sweep s(begin, n, chunks, chunk, body, token);
  if (chunks < 2 || !pool->publish(&s)) {
    // Inline: nested, under the grain, or another sweep holds the pool.
    s.work(0);
  } else {
    // Join only once a worker holds the sweep. The hand-off is what puts a
    // parked worker back on a core of its own before the caller starts on
    // lane 0, and a sweep stopped before any pickup is drained here, its
    // chunks seeing the stop and running nothing.
    wait_until([&s] {
      return s.picked_up.load(std::memory_order_acquire) || s.stop();
    });
    g_in_sweep = true;
    s.work(0);
    g_in_sweep = false;
    wait_until([&s] {
      return s.remaining.load(std::memory_order_acquire) == 0;
    });
    pool->retire();
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    if (s.errors[c]) out.errors.push_back(s.errors[c]);
  }
  out.cancelled = token != nullptr && token->cancelled();
  return out;
}

void rethrow(const ParallelOutcome& out) {
  if (std::exception_ptr first = out.first_error()) {
    std::rethrow_exception(first);  // first one wins; none were dropped
  }
  if (out.cancelled) throw OperationCancelled();
}

}  // namespace detail

}  // namespace pfact::par
