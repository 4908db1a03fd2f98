// Liveness coverage for the serve-layer counter taxonomy: every counter the
// fork/socket paths bump is exercised through a real (small) scenario and
// asserted via ScopedCounters deltas — the observed leg of the PL017
// counter-dead lint rule, mirroring tests/obs/test_counter_coverage.cpp for
// the in-process counters. Rides the `serve` ctest label (real forks, real
// signals), so sanitizer lanes skip it like the rest of tests/serve.
//
// Failure-shaped counters (crashes, watchdog kills, fork failures) are
// asserted two ways: a clean run must leave them at zero (no spurious
// accounting), and the deliberately-killed runs must move exactly the ones
// that correspond to how the worker died.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/counters.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/resilient_run.h"
#include "robustness/retry.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/result_cache.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

using obs::Counter;
using obs::CounterDelta;
using obs::Histogram;
using obs::ScopedCounters;
using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::ReductionTask;

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

ReductionTask gem_xor_task() {
  ReductionTask t;
  t.algorithm = Algorithm::kGem;
  t.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  return t;
}

TaskRequest gem_request() {
  TaskRequest req;
  req.task = gem_xor_task();
  return req;
}

// A distinct-per-id task family, so cache hits cannot mask a fresh run.
ReductionTask chain_task(int id) {
  ReductionTask t;
  t.algorithm = Algorithm::kGep;
  t.u = 1 + id % 2;
  t.w = 1;
  t.depth = 2 + static_cast<std::size_t>(id % 7);
  return t;
}

TEST(ServeCounters, CleanWarmJobCountsSpawnsAndJobsButNoFailures) {
  ScopedCounters sc;
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  const WorkerRun run = pool.run_task(gem_request(), nullptr);
  ASSERT_EQ(run.exit, WorkerExit::kCompleted) << run.detail;
  const CounterDelta d = sc.delta();
  if (!kObsOn) {
    EXPECT_EQ(d[Counter::kWorkerSpawns], 0u);
    return;
  }
  EXPECT_GE(d[Counter::kWorkerSpawns], 1u);
  EXPECT_GE(d[Counter::kServeWarmJobs], 1u);
  // A clean run must not manufacture failure accounting.
  EXPECT_EQ(d[Counter::kWorkerCrashes], 0u);
  EXPECT_EQ(d[Counter::kWorkerWatchdogKills], 0u);
  EXPECT_EQ(d[Counter::kServeForkFailures], 0u);
}

TEST(ServeCounters, KilledWedgedAndRecycledWorkersMoveTheirCounters) {
  ScopedCounters sc;
  WarmPoolOptions o;
  o.workers = 1;
  o.recycle_after = 2;
  WarmPool pool(o);

  TaskRequest killed = gem_request();
  killed.kill.mode = KillPlan::Mode::kSigkill;
  EXPECT_EQ(pool.run_task(killed, nullptr).exit, WorkerExit::kSignalled);

  TaskRequest wedged = gem_request();
  wedged.kill.mode = KillPlan::Mode::kSpin;
  EXPECT_EQ(
      pool.run_task(wedged, nullptr, std::chrono::milliseconds(200)).exit,
      WorkerExit::kWatchdog);

  // Two clean jobs hit the recycle_after=2 quota: a planned retirement.
  EXPECT_EQ(pool.run_task(gem_request(), nullptr).exit,
            WorkerExit::kCompleted);
  EXPECT_EQ(pool.run_task(gem_request(), nullptr).exit,
            WorkerExit::kCompleted);

  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kWorkerCrashes], 2u);  // SIGKILL + watchdog SIGKILL
  EXPECT_GE(d[Counter::kWorkerWatchdogKills], 1u);
  EXPECT_GE(d[Counter::kServeWorkerRecycles], 1u);
  EXPECT_EQ(d[Counter::kServeForkFailures], 0u);
}

TEST(ServeCounters, SupervisedResumeHandoffIsCounted) {
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  SupervisorOptions opt;
  opt.retry.max_attempts = 3;
  opt.retry.base_delay = std::chrono::milliseconds(1);
  opt.checkpoint_every = 2;
  opt.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) {
      kill.mode = KillPlan::Mode::kSigkill;
      kill.after_saves = 1;  // die with a resumable snapshot on file
    }
    return kill;
  };
  ScopedCounters sc;
  const SupervisedReport rep = supervised_run(pool, gem_xor_task(), opt);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  EXPECT_EQ(rep.resume_handoffs, 1u);
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kWorkerResumeHandoffs], 1u);
  EXPECT_GE(d[Counter::kWorkerCrashes], 1u);
}

TEST(ServeCounters, ServiceSubmitShedAndQueueDepthAreCounted) {
  ScopedCounters sc;
  ServiceOptions so;
  so.dispatchers = 1;
  so.queue_depth = 1;
  so.pool.workers = 1;
  so.supervisor.retry.max_attempts = 1;
  ReductionService service(so);

  // Wedge the only dispatcher, fill the single queue slot, overflow it.
  JobOptions wedge;
  wedge.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) kill.mode = KillPlan::Mode::kSpin;
    return kill;
  };
  wedge.watchdog = std::chrono::milliseconds(300);
  auto wedged = service.submit(gem_xor_task(), wedge);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto filler = service.submit(chain_task(2));
  auto extra = service.submit(chain_task(3));

  EXPECT_EQ(extra->wait().admission, Admission::kShedQueueFull);
  EXPECT_TRUE(filler->wait().report.certified);
  wedged->wait();

  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kServeJobsSubmitted], 3u);
  EXPECT_GE(d[Counter::kServeJobsShed], 1u);
  EXPECT_GT(d.histogram_total(Histogram::kQueueDepth), 0u);
}

TEST(ServeCounters, CacheMissFillHitEvictAndCorruptAreCounted) {
  using robustness::Substrate;
  // A genuine PFCK blob, as the cache vets every entry's riding checkpoint.
  robustness::CheckpointStore store;
  robustness::ResilientOptions ro;
  ro.store = &store;
  ro.checkpoint_every = 2;
  robustness::resilient_run(gem_xor_task(), ro);
  ASSERT_FALSE(store.empty());
  CacheEntry entry;
  entry.value = true;
  entry.final_checkpoint = *store.latest();

  ScopedCounters sc;
  ResultCache cache(1);
  const std::string key_a =
      ResultCache::key_for(chain_task(4), Substrate::kDouble);
  const std::string key_b =
      ResultCache::key_for(chain_task(5), Substrate::kDouble);
  CacheEntry out;
  EXPECT_EQ(cache.lookup(key_a, out), CacheProbe::kMiss);
  cache.insert(key_a, entry);                             // fill
  EXPECT_EQ(cache.lookup(key_a, out), CacheProbe::kHit);  // hit
  cache.insert(key_b, entry);  // fill at capacity 1: evicts key_a
  EXPECT_EQ(cache.lookup(key_a, out), CacheProbe::kMiss);
  ASSERT_TRUE(cache.corrupt_entry_for_testing(key_b));
  EXPECT_EQ(cache.lookup(key_b, out), CacheProbe::kCorruptEntry);

  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kServeCacheMisses], 2u);
  EXPECT_GE(d[Counter::kServeCacheFills], 2u);
  EXPECT_GE(d[Counter::kServeCacheHits], 1u);
  EXPECT_GE(d[Counter::kServeCacheEvictions], 1u);
  EXPECT_GE(d[Counter::kServeCacheCorrupt], 1u);
}

TEST(ServeCounters, FrontendTrafficCountsConnsBytesAndClientRetries) {
  ::signal(SIGPIPE, SIG_IGN);
  ScopedCounters sc;
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path = "/tmp/pfact-counter-cov-" + std::to_string(::getpid()) +
                 ".sock";
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());

  ClientOptions co;
  co.unix_path = frontend.unix_path();
  co.retry.max_attempts = 3;
  co.retry.base_delay = std::chrono::milliseconds(1);
  co.fault.fault = NetFault::kTornFrame;
  co.fault.seed = 7;
  co.fault.on_attempt = 1;  // sabotage attempt 1, forcing one client retry
  Client client(co);
  const ClientResult r = client.submit(chain_task(6));
  ASSERT_TRUE(r.ok) << frontend_status_name(r.status);
  EXPECT_EQ(r.attempts, 2u);

  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kFrontendConnsAccepted], 2u);
  EXPECT_GT(d[Counter::kFrontendBytesRead], 0u);
  EXPECT_GT(d[Counter::kFrontendBytesWritten], 0u);
  EXPECT_GE(d[Counter::kClientRetries], 1u);
}

}  // namespace
}  // namespace pfact::serve
