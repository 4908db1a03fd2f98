#pragma once
// A work-sharing thread pool and parallel_for.
//
// The NC-algorithm implementations (Csanky, prefix ranks, LFMIS, parallel
// elimination sweeps) use this for real concurrency; their *complexity*
// claims, however, are demonstrated through the work/depth instrumentation
// in analysis/depth_model.h, since asymptotic depth — not wall-clock on a
// particular host — is what Table 1's "NC" entries assert.
//
// A parallel_for is a *sweep* (DESIGN.md §17): one descriptor on the
// caller's stack holds the loop, atomic chunk claims, a counting latch and
// one exception slot per chunk. The pool's workers watch a generation
// counter briefly (yielding their core) before parking, so back-to-back
// sweeps (one per elimination step) pay no wake-up. A sweep has lanes():
// lane 0 is the caller, the others are workers, and chunk c is offered
// first to lane c, so a row range stays in one core's cache from step to
// step; a lane that finds its chunk taken, or finishes early, takes any
// chunk still open. parallel_for_ranges runs ranges too small to split
// into two chunks of its `grain` inline.
//
// Robustness contract (see DESIGN.md "Fault injection & guarded execution"):
//   * A worker exception never disappears: parallel_for waits for every
//     chunk before rethrowing, and parallel_for_report hands back ALL
//     captured exceptions so callers can aggregate them into a RunReport.
//   * A failing chunk cancels the remaining iterations cooperatively — the
//     other chunks stop at their next iteration boundary instead of burning
//     through a poisoned input.
//   * The caller joins its own sweep only after a worker has picked it up,
//     and a sweep cancelled before that is drained inline: its chunks see
//     the token and run nothing, so cancellation never waits behind
//     unrelated work that holds every worker.
//   * submit() on a pool that is shutting down throws instead of accepting
//     a task whose future would never resolve (a silent deadlock).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/annotations.h"

namespace pfact::par {

// Cooperative cancellation flag shared between a controller (e.g. a guarded
// run enforcing a deadline) and the loop bodies it schedules.
class CancellationToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

// Thrown by parallel_for when the caller's CancellationToken fires before
// the range completes.
class OperationCancelled : public std::runtime_error {
 public:
  OperationCancelled() : std::runtime_error("parallel_for: cancelled") {}
};

// Everything parallel_for_report knows about a completed (or aborted)
// sweep. `errors` preserves one exception per failing chunk, in chunk
// order, so no failure is ever silently dropped.
struct ParallelOutcome {
  std::vector<std::exception_ptr> errors;
  bool cancelled = false;  // the caller's token fired mid-sweep

  bool ok() const { return errors.empty() && !cancelled; }
  // First captured exception (chunk order), or nullptr.
  std::exception_ptr first_error() const {
    return errors.empty() ? nullptr : errors.front();
  }
};

class ThreadPool;

namespace detail {

// What a chunk checks at each iteration boundary: a sibling chunk threw
// (fail-fast) or the caller's token fired.
struct StopFlag {
  const std::atomic<bool>& failed;
  const CancellationToken* token;
  bool operator()() const {
    return failed.load(std::memory_order_relaxed) ||
           (token != nullptr && token->cancelled());
  }
};

// Runs the caller's loop over [lo, hi). Instantiated per loop body, so the
// loop is compiled against the body and a chunk costs one indirect call.
using ChunkFn = void (*)(void* body, std::size_t lo, std::size_t hi,
                         const StopFlag& stop);

template <class Fn>
void run_indices(void* body, std::size_t lo, std::size_t hi,
                 const StopFlag& stop) {
  Fn& fn = *static_cast<Fn*>(body);
  for (std::size_t i = lo; i < hi; ++i) {
    if (stop()) return;
    fn(i);
  }
}

template <class Body>
void run_range(void* body, std::size_t lo, std::size_t hi, const StopFlag&) {
  (*static_cast<Body*>(body))(lo, hi);
}

template <class F>
void* erase(F& f) {
  return const_cast<void*>(static_cast<const void*>(std::addressof(f)));
}

// Runs [begin, end) as one sweep of chunks of at least `grain` iterations
// (inline when fewer than two fit, or when nested).
ParallelOutcome sweep(std::size_t begin, std::size_t end, std::size_t grain,
                      ChunkFn chunk, void* body, ThreadPool* pool,
                      const CancellationToken* token);

// Rethrows the first captured exception, or OperationCancelled.
void rethrow(const ParallelOutcome& out);

}  // namespace detail

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Threads one sweep runs on, the caller included: max(2, size()). Lane 0
  // is the caller and worker w serves lane w + 1, starting on a core of
  // its own (Linux); a worker without a lane runs only submitted tasks. A
  // one-thread pool still has two lanes, because the caller joins a sweep
  // only after its worker picks it up.
  std::size_t lanes() const { return lanes_; }

  // Enqueues a task; the returned future resolves when it has run.
  // Throws std::runtime_error if the pool is shutting down (a task accepted
  // then would never run and its future would never resolve).
  std::future<void> submit(std::function<void()> task);

  // Pops every queued-but-unstarted task and runs it inline on the calling
  // thread, so its future resolves now instead of whenever a worker frees
  // up — a caller cancelling its own queued work need not wait behind
  // unrelated long-running tasks, and no queued task leaks. Returns the
  // number of tasks drained.
  std::size_t drain_pending();

  // Shared process-wide pool, sized to the hardware.
  static ThreadPool& global();

 private:
  friend ParallelOutcome detail::sweep(std::size_t, std::size_t, std::size_t,
                                       detail::ChunkFn, void*, ThreadPool*,
                                       const CancellationToken*);
  struct Sweep;

  void worker_loop(std::size_t lane);
  bool publish(Sweep* s);
  void retire();

  Mutex mu_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_ PFACT_GUARDED_BY(mu_);
  bool stop_ PFACT_GUARDED_BY(mu_) = false;

  // Sweep hand-off. `sweep_` is the one live sweep (a second concurrent
  // caller runs its loop inline); `generation_` ticks on every publish;
  // `users_` counts workers that may hold `sweep_`, so retire() knows when
  // the descriptor on the caller's stack is unreachable; `parked_` counts
  // lane workers blocked on cv_, so a publish takes the mutex only when
  // someone needs waking.
  std::atomic<Sweep*> sweep_{nullptr};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> users_{0};
  std::atomic<std::size_t> parked_{0};
  std::size_t lanes_ = 2;
  // Only mutated in the constructor, before any worker can observe `this`;
  // size() reads it concurrently but the vector is immutable by then.
  std::vector<std::thread> workers_;
};

// Runs fn(i) for i in [begin, end), split into contiguous chunks across the
// pool's lanes. Blocks until every chunk has finished (never abandons a
// running chunk). Never throws from worker failures: all captured
// exceptions are returned. After the first chunk failure — or once `token`
// (optional) fires — the remaining iterations are skipped cooperatively.
// A call made from inside a sweep or a pool worker runs inline.
template <class Fn>
ParallelOutcome parallel_for_report(std::size_t begin, std::size_t end,
                                    Fn&& fn, ThreadPool* pool = nullptr,
                                    const CancellationToken* token = nullptr) {
  return detail::sweep(begin, end, 1,
                       &detail::run_indices<std::remove_reference_t<Fn>>,
                       detail::erase(fn), pool, token);
}

// Convenience wrapper: as above, but rethrows the first captured exception
// (only after ALL chunks have completed — the loop body and its captures
// are guaranteed dead before the exception propagates), or throws
// OperationCancelled if the token fired.
template <class Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  ThreadPool* pool = nullptr,
                  const CancellationToken* token = nullptr) {
  detail::rethrow(parallel_for_report(begin, end, fn, pool, token));
}

// The range form, for loop bodies that pay per chunk (e.g. bump a counter
// once): body(lo, hi) runs once per chunk. A range that cannot split into
// two chunks of at least `grain` iterations runs inline as one call.
// Rethrows like parallel_for.
template <class Body>
void parallel_for_ranges(std::size_t begin, std::size_t end,
                         std::size_t grain, Body&& body,
                         ThreadPool* pool = nullptr) {
  detail::rethrow(detail::sweep(
      begin, end, grain, &detail::run_range<std::remove_reference_t<Body>>,
      detail::erase(body), pool, nullptr));
}

}  // namespace pfact::par
