#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/counters.h"

namespace pfact::par {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ParallelFor, CoversExactRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, NonZeroBase) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 145);  // 10+..+19
}

TEST(ParallelFor, ExceptionSurfaceable) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::logic_error("x");
                   }),
      std::logic_error);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, MultipleThrowingIterationsStillThrowExactlyOnce) {
  // Several iterations throw concurrently; exactly one exception must
  // surface from the call (the rest are collected, not leaked or dropped)
  // and the call must not terminate() or deadlock.
  ThreadPool pool(4);
  std::atomic<int> threw{0};
  try {
    parallel_for(
        0, 400,
        [&](std::size_t i) {
          if (i % 25 == 0) {
            ++threw;
            throw std::runtime_error("iteration " + std::to_string(i));
          }
        },
        &pool);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("iteration"), std::string::npos);
  }
  EXPECT_GE(threw.load(), 1);
}

TEST(ParallelFor, ReportVariantAggregatesInsteadOfThrowing) {
  ThreadPool pool(2);
  ParallelOutcome out = parallel_for_report(
      0, 64,
      [](std::size_t i) {
        if (i == 1) throw std::runtime_error("only one");
      },
      &pool);
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(out.cancelled);
  EXPECT_GE(out.errors.size(), 1u);
}

TEST(ParallelFor, ThrowDoesNotPoisonThePoolForLaterSweeps) {
  // After an exceptional sweep the same pool must serve clean sweeps —
  // no stuck workers, no lingering fail-fast state.
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   0, 32,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("once");
                   },
                   &pool),
               std::runtime_error);
  std::atomic<int> ran{0};
  parallel_for(0, 32, [&](std::size_t) { ++ran; }, &pool);
  EXPECT_EQ(ran.load(), 32);
}

// --- the sweep fast path ----------------------------------------------------

TEST(SweepFastPath, BackToBackSweepsHitEveryIndexExactlyOnce) {
  // One sweep per elimination step is the hot pattern: the generation
  // counter, chunk claims and latch must hand every index to exactly one
  // lane, sweep after sweep, with no stale claim leaking into the next.
  ThreadPool pool(4);
  constexpr int kSweeps = 20000;
  std::vector<std::atomic<int>> hits(64);
  for (int s = 0; s < kSweeps; ++s) {
    parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, &pool);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), kSweeps) << i;
  }
}

TEST(SweepFastPath, RangeUnderTheGrainRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id me = std::this_thread::get_id();
  // 37 iterations < 2 * 19: no two chunks of the grain fit, so the whole
  // range is one body call on this thread.
  int calls = 0;
  parallel_for_ranges(
      3, 40, 19,
      [&](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 3u);
        EXPECT_EQ(hi, 40u);
        EXPECT_EQ(std::this_thread::get_id(), me);
      },
      &pool);
  EXPECT_EQ(calls, 1);
  // One more iteration and two chunks fit: the range is split.
  std::atomic<int> split_calls{0};
  parallel_for_ranges(
      3, 41, 19, [&](std::size_t, std::size_t) { ++split_calls; }, &pool);
  EXPECT_EQ(split_calls.load(), 2);
}

TEST(SweepFastPath, NestedCallFromTheCallersLaneRunsInline) {
  // The caller works lane 0 of its own sweep; a parallel_for it starts from
  // there must not wait on the pool its sweep occupies. The worker naps in
  // its chunk so it cannot also take the caller's before the caller joins.
  ThreadPool pool(2);
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> nested_on_caller{0};
  std::atomic<int> inner_total{0};
  for (int rep = 0; rep < 20; ++rep) {
    parallel_for(
        0, 2,
        [&](std::size_t) {
          if (std::this_thread::get_id() != me) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return;
          }
          parallel_for(
              0, 100,
              [&](std::size_t) {
                EXPECT_EQ(std::this_thread::get_id(), me);
                ++inner_total;
              },
              &pool);
          ++nested_on_caller;
        },
        &pool);
  }
  EXPECT_GT(nested_on_caller.load(), 0);
  EXPECT_EQ(inner_total.load(), 100 * nested_on_caller.load());
}

TEST(SweepFastPath, PoolCountersCountWhatTheyName) {
  if (!PFACT_OBS_ENABLED) GTEST_SKIP() << "observability compiled out";
  using obs::Counter;
  ThreadPool pool(4);
  ASSERT_EQ(pool.lanes(), 4u);
  obs::ScopedCounters sc;
  parallel_for(0, 64, [](std::size_t) {}, &pool);  // 1 call, 4 chunks
  parallel_for(0, 1, [](std::size_t) {}, &pool);   // 1 call, 1 inline chunk
  parallel_for(7, 7, [](std::size_t) {}, &pool);   // empty: nothing
  parallel_for_ranges(0, 100, 60, [](std::size_t, std::size_t) {},
                      &pool);                        // 1 call, 1 inline chunk
  pool.submit([] {}).get();                          // 1 task, no sweep
  const obs::CounterDelta d = sc.delta();
  EXPECT_EQ(d[Counter::kParallelForCalls], 3u);
  EXPECT_EQ(d[Counter::kPoolChunksRun], 6u);
  EXPECT_EQ(d[Counter::kPoolTasksSubmitted], 1u);
}

}  // namespace
}  // namespace pfact::par
