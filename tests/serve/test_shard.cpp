// The sharded self-healing service, end to end: taxonomy totality, probe
// echoes, consistent-hash routing with cache locality, failover around
// killed shards, bulkhead eviction of wedged (SIGSTOPped) shards, brownout
// admission, bit-reproducible restart backoff, and the headline contract —
// a shard death mid-job yields the same bit-equal decode (value AND pivot
// trace) as the unsharded baseline service.
//
// Rides the `serve` ctest label: real forks, real SIGKILL/SIGSTOP, so
// sanitizer lanes skip it like the rest of tests/serve.

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/counters.h"
#include "robustness/escalation.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/result_cache.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/wire.h"

namespace pfact::serve {
namespace {

using obs::Counter;
using obs::CounterDelta;
using obs::ScopedCounters;
using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::ReductionTask;

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

ReductionTask gem_xor_task(bool a, bool b) {
  ReductionTask t;
  t.algorithm = Algorithm::kGem;
  t.instance = circuit::CvpInstance{circuit::xor_circuit(), {a, b}};
  return t;
}

ReductionTask parity_task(std::size_t bits, unsigned mask) {
  ReductionTask t;
  t.algorithm = Algorithm::kGem;
  std::vector<bool> in(bits);
  for (std::size_t i = 0; i < bits; ++i) in[i] = ((mask >> i) & 1u) != 0;
  t.instance = circuit::CvpInstance{circuit::parity_circuit(bits), in};
  return t;
}

RouterOptions small_router(std::size_t shards) {
  RouterOptions ro;
  ro.shards = shards;
  ro.service.dispatchers = 1;
  ro.service.pool.workers = 1;
  ro.service.queue_depth = 8;
  ro.service.cache_capacity = 64;
  ro.probe_interval = std::chrono::milliseconds(25);
  ro.probe_deadline = std::chrono::milliseconds(250);
  ro.restart.base_delay = std::chrono::milliseconds(5);
  ro.restart.max_delay = std::chrono::milliseconds(100);
  ro.restart.jitter_seed = 7;
  return ro;
}

// --- taxonomy totality (the four legs of the row tables, at runtime) -------

TEST(ShardTaxonomy, EveryShardStatusHasAllFourLegs) {
  ASSERT_EQ(all_shard_statuses().size(), 5u);
  for (const ShardStatus s : all_shard_statuses()) {
    EXPECT_STRNE(shard_status_name(s), "?");
    EXPECT_NE(obs::counter_name(shard_status_counter(s)), nullptr);
    // Non-serving states are transient moments, never fatal verdicts.
    if (s != ShardStatus::kServing) {
      EXPECT_NE(diagnose_shard_status(s), Diagnostic::kOk);
      EXPECT_NE(diagnose_shard_status(s), Diagnostic::kInternalError);
    }
  }
  EXPECT_EQ(shard_status_counter(ShardStatus::kStarting),
            Counter::kShardStarting);
  EXPECT_EQ(shard_status_counter(ShardStatus::kServing),
            Counter::kShardServing);
  EXPECT_EQ(shard_status_counter(ShardStatus::kUnresponsive),
            Counter::kShardUnresponsive);
  EXPECT_EQ(shard_status_counter(ShardStatus::kDead), Counter::kShardDead);
  EXPECT_EQ(shard_status_counter(ShardStatus::kRestarting),
            Counter::kShardRestarting);
}

TEST(ShardTaxonomy, EveryRouterStatusHasAllFourLegs) {
  ASSERT_EQ(all_router_statuses().size(), 4u);
  for (const RouterStatus s : all_router_statuses()) {
    EXPECT_STRNE(router_status_name(s), "?");
    EXPECT_NE(obs::counter_name(router_status_counter(s)), nullptr);
    EXPECT_NE(diagnose_router_status(s), Diagnostic::kInternalError);
  }
  EXPECT_EQ(router_status_counter(RouterStatus::kRouted),
            Counter::kRouterRoutes);
  EXPECT_EQ(router_status_counter(RouterStatus::kFailedOver),
            Counter::kRouterFailovers);
  EXPECT_EQ(router_status_counter(RouterStatus::kBrownoutShed),
            Counter::kRouterBrownoutSheds);
  EXPECT_EQ(router_status_counter(RouterStatus::kAllShardsDown),
            Counter::kRouterAllShardsDown);
  // Shed shapes must read as retryable to a client's decision table.
  EXPECT_EQ(diagnose_router_status(RouterStatus::kBrownoutShed),
            Diagnostic::kOverloaded);
  EXPECT_EQ(diagnose_router_status(RouterStatus::kAllShardsDown),
            Diagnostic::kConnReset);
}

// --- the probe frame --------------------------------------------------------

TEST(ShardProbe, FrontendEchoesProbeWithoutTouchingTheQueue) {
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_test_probe_" + std::to_string(::getpid()) + ".sock";
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());

  ScopedCounters sc;
  EXPECT_TRUE(probe_shard(fo.unix_path, std::chrono::milliseconds(2000)));
  EXPECT_TRUE(probe_shard(fo.unix_path, std::chrono::milliseconds(2000)));
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_EQ(d[Counter::kFrontendProbes], 2u);
  }
  // Probes are heartbeats, not conversations: no submission reached the
  // service and no FrontendStatus ending was recorded.
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ShardProbe, DeadSocketProbesFalse) {
  EXPECT_FALSE(probe_shard("/tmp/pfact_no_such_shard.sock",
                           std::chrono::milliseconds(100)));
}

// --- routing, locality, healing --------------------------------------------

TEST(ShardRouterTest, RoutesToHomeShardAndHitsItsCache) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  const ReductionTask task = gem_xor_task(true, false);
  ScopedCounters sc;
  const RouteResult first = router.submit(task);
  ASSERT_EQ(first.status, RouterStatus::kRouted) << "failovers="
                                                 << first.failovers;
  EXPECT_TRUE(first.response.certified);
  EXPECT_EQ(first.response.value, task.expected());
  EXPECT_EQ(first.shard, router.home_shard(task));

  const RouteResult second = router.submit(task);
  ASSERT_EQ(second.status, RouterStatus::kRouted);
  EXPECT_TRUE(second.response.from_cache)
      << "repeat of the same key must hit the home shard's cache";
  EXPECT_EQ(second.shard, first.shard);
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_EQ(d[Counter::kRouterRoutes], 2u);
    EXPECT_EQ(d[Counter::kRouterBrownoutSheds], 0u);
    EXPECT_EQ(d[Counter::kRouterAllShardsDown], 0u);
  }

  const ShardRouter::Stats st = router.stats();
  EXPECT_EQ(st.answered, 2u);
  EXPECT_EQ(st.answered_by_home, 2u);
  EXPECT_EQ(st.status(RouterStatus::kRouted), 2u);
}

TEST(ShardRouterTest, HomeShardIsDeterministicAndSpread) {
  ShardRouter router(small_router(3));
  // Deterministic: same task, same home, every time.
  for (unsigned m = 0; m < 4; ++m) {
    const ReductionTask t = gem_xor_task((m & 1) != 0, (m & 2) != 0);
    EXPECT_EQ(router.home_shard(t), router.home_shard(t));
  }
  // Spread: across a family of keys, at least two shards get work (a
  // degenerate ring that homes everything on one shard would make sharding
  // pointless).
  std::vector<bool> hit(3, false);
  for (unsigned m = 0; m < 16; ++m) {
    hit[router.home_shard(parity_task(4, m))] = true;
  }
  int used = 0;
  for (const bool h : hit) used += h ? 1 : 0;
  EXPECT_GE(used, 2);
}

TEST(ShardRouterTest, FailsOverAroundAKilledShardAndHeals) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  // Warm one key on each shard so the brownout window keeps serving them.
  std::vector<ReductionTask> warm;
  for (unsigned m = 0; m < 8 && warm.size() < 2; ++m) {
    const ReductionTask t = parity_task(3, m);
    const RouteResult r = router.submit(t);
    ASSERT_EQ(r.status, RouterStatus::kRouted);
    if (warm.empty() || router.home_shard(t) != router.home_shard(warm[0])) {
      warm.push_back(t);
    }
  }
  ASSERT_EQ(warm.size(), 2u) << "need a warm key on each shard";

  ScopedCounters sc;
  const std::size_t victim = router.home_shard(warm[0]);
  ASSERT_TRUE(router.kill_shard_for_testing(victim, SIGKILL));

  // The victim's warm key must keep answering throughout the outage — by
  // failover to the survivor (which recomputes and re-verifies) or, later,
  // by the healed home shard. Every ending must be classified.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  bool failed_over = false;
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline && !healed) {
    const RouteResult r = router.submit(warm[0]);
    switch (r.status) {
      case RouterStatus::kRouted:
        EXPECT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, warm[0].expected());
        healed = failed_over;  // home answered again after the detour
        break;
      case RouterStatus::kFailedOver:
        EXPECT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, warm[0].expected());
        failed_over = true;
        break;
      case RouterStatus::kBrownoutShed:
        EXPECT_EQ(r.response.status, FrontendStatus::kOverloaded);
        break;
      case RouterStatus::kAllShardsDown:
        // Transiently possible while the survivor is also saturated; must
        // still be classified.
        EXPECT_NE(r.response.report.diagnostic, Diagnostic::kInternalError);
        break;
      case RouterStatus::kCount_:
        ADD_FAILURE() << "the sentinel is not an ending";
        break;
    }
  }
  EXPECT_TRUE(failed_over) << "the killed home shard never forced a failover";
  EXPECT_TRUE(healed) << "the killed shard never healed back to serving";
  EXPECT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const ShardRouter::Stats st = router.stats();
  EXPECT_GE(st.restarts, 1u);
  EXPECT_GE(st.status(RouterStatus::kFailedOver), 1u);
  // ShardStatus coverage for the death path: dead and restarting were both
  // observed states, and serving was re-observed after the heal.
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(ShardStatus::kDead)],
            1u);
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(
                ShardStatus::kRestarting)],
            1u);
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_GE(d[Counter::kRouterFailovers], 1u);
    EXPECT_GE(d[Counter::kRouterRestarts], 1u);
    EXPECT_GE(d[Counter::kShardDead], 1u);
    EXPECT_GE(d[Counter::kShardRestarting], 1u);
    EXPECT_GE(d[Counter::kShardStarting], 1u);
    EXPECT_GE(d[Counter::kShardServing], 1u);
    EXPECT_GE(d[Counter::kRouterProbes], 1u);
  }
}

// The router keeps one client per shard, and a respawned shard keeps its
// socket path. The router's idle socket to the killed process is stale; the
// first submit after the heal replaces it silently and is answered at home.
TEST(ShardRouterTest, RespawnedHomeShardAnswersWithoutAFailover) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));
  const ReductionTask task = gem_xor_task(false, true);
  ASSERT_EQ(router.submit(task).status, RouterStatus::kRouted);

  const std::size_t home = router.home_shard(task);
  const pid_t killed = router.shard_pid(home);
  ASSERT_TRUE(router.kill_shard_for_testing(home, SIGKILL));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline &&
         (router.shard_pid(home) == killed || router.shard_pid(home) <= 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(router.shard_pid(home), killed) << "the shard never respawned";
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));

  ScopedCounters sc;
  const RouteResult r = router.submit(task);
  EXPECT_EQ(r.status, RouterStatus::kRouted)
      << router_status_name(r.status) << " failovers=" << r.failovers;
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.shard, home);
  EXPECT_TRUE(r.response.certified);
  EXPECT_EQ(r.response.value, task.expected());
  if (kObsOn) {
    EXPECT_EQ(sc.delta()[Counter::kClientStaleReconnects], 1u);
  }
}

TEST(ShardRouterTest, BrownoutShedsFreshWorkButServesWarmKeys) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  const ReductionTask warm_task = gem_xor_task(true, true);
  ASSERT_EQ(router.submit(warm_task).status, RouterStatus::kRouted);

  // Kill a shard; the supervision loop marks it dead within a tick or two.
  ASSERT_TRUE(router.kill_shard_for_testing(0, SIGKILL));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router.browned_out() &&
         std::chrono::steady_clock::now() < deadline) {
  }
  ASSERT_TRUE(router.browned_out());

  // Degraded: a never-seen key is shed with a classified, retryable
  // refusal; the warm key still answers (from cache or by failover).
  ScopedCounters sc;
  const RouteResult fresh = router.submit(parity_task(5, 21));
  EXPECT_EQ(fresh.status, RouterStatus::kBrownoutShed);
  EXPECT_EQ(fresh.response.status, FrontendStatus::kOverloaded);
  EXPECT_EQ(fresh.response.report.diagnostic, Diagnostic::kOverloaded);

  const RouteResult warm = router.submit(warm_task);
  EXPECT_TRUE(warm.status == RouterStatus::kRouted ||
              warm.status == RouterStatus::kFailedOver)
      << router_status_name(warm.status);
  EXPECT_TRUE(warm.response.certified);
  EXPECT_EQ(warm.response.value, warm_task.expected());
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_GE(d[Counter::kRouterBrownoutSheds], 1u);
  }

  // Brownout is a state, not a ratchet: once the shard heals, fresh keys
  // are admitted again.
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const RouteResult after = router.submit(parity_task(5, 21));
  EXPECT_TRUE(after.status == RouterStatus::kRouted ||
              after.status == RouterStatus::kFailedOver);
  EXPECT_EQ(after.response.value, parity_task(5, 21).expected());
}

TEST(ShardRouterTest, WedgedShardIsEvictedNotWaitedOn) {
  RouterOptions ro = small_router(2);
  ro.probe_deadline = std::chrono::milliseconds(150);
  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  // SIGSTOP: the process is alive (waitpid sees nothing) but its event loop
  // is frozen — the exact failure mode only the probe deadline can catch.
  ASSERT_TRUE(router.kill_shard_for_testing(1, SIGSTOP));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool evicted = false;
  while (!evicted && std::chrono::steady_clock::now() < deadline) {
    evicted = router.stats().evictions >= 1;
  }
  EXPECT_TRUE(evicted) << "probe deadline never evicted the wedged shard";
  // SIGKILL (delivered by the eviction) kills even a stopped process; the
  // reaper then classifies and heals it like any other death.
  EXPECT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const ShardRouter::Stats st = router.stats();
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(
                ShardStatus::kUnresponsive)],
            1u);
  EXPECT_GE(st.restarts, 1u);
}

TEST(ShardRouterTest, RestartBackoffIsSeededAndBitReproducible) {
  RouterOptions ro = small_router(1);
  ro.restart.jitter_seed = 42;
  ShardRouter a(ro);
  ShardRouter b(ro);
  robustness::RetryPolicy mirror = ro.restart;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(a.restart_delay(attempt), b.restart_delay(attempt));
    EXPECT_EQ(a.restart_delay(attempt), mirror.backoff(attempt));
  }
  robustness::RetryPolicy other = ro.restart;
  other.jitter_seed = 43;
  bool diverged = false;
  for (std::size_t attempt = 1; attempt <= 6 && !diverged; ++attempt) {
    diverged = other.backoff(attempt) != a.restart_delay(attempt);
  }
  EXPECT_TRUE(diverged) << "jitter seed does not reach the restart schedule";
}

// --- the headline: shard death mid-job == unsharded baseline, bit for bit --

TEST(ShardRouterTest, KillMidJobDecodesBitEqualToUnshardedBaseline) {
  // Unsharded baseline: the same service configuration, one process.
  RouterOptions ro = small_router(2);
  ReductionService baseline(ro.service);
  const ReductionTask task = parity_task(4, 11);
  const ServiceResponse base = baseline.run(task);
  ASSERT_EQ(base.admission, Admission::kAccepted);
  ASSERT_TRUE(base.report.certified);

  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));
  // Serve the key once so it stays admissible through the brownout window.
  ASSERT_EQ(router.submit(task).status, RouterStatus::kRouted);

  // Kill the home shard at every boundary we can reach from outside: before
  // the submit, and mid-flight via a racing kill. Whatever the interleaving,
  // every certified answer must match the baseline bit for bit — value AND
  // pivot trace — because a failover re-runs the whole deterministic
  // reduction, never resumes a half-trusted one.
  for (int round = 0; round < 3; ++round) {
    router.kill_shard_for_testing(router.home_shard(task), SIGKILL);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool answered = false;
    while (!answered && std::chrono::steady_clock::now() < deadline) {
      const RouteResult r = router.submit(task);
      if (r.status == RouterStatus::kRouted ||
          r.status == RouterStatus::kFailedOver) {
        ASSERT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, base.report.value);
        EXPECT_EQ(r.response.value, task.expected());
        if (!r.response.from_cache) {
          EXPECT_TRUE(
              r.response.report.trace == base.report.final_report.trace)
              << "sharded pivot trace diverged from the unsharded baseline";
        }
        answered = true;
      }
    }
    EXPECT_TRUE(answered) << "round " << round << " never answered";
    ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  }
}

// --- fork hygiene: a router next to a hosted service, and router death -----

// A fresh socket directory per test, so "no shard socket left" is
// checkable; removed with whatever is left in it, even when a test fails.
struct SocketDir {
  std::string path;
  SocketDir() {
    char tmpl[] = "/tmp/pfact_shard_test_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~SocketDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  bool is_empty() const {
    std::error_code ec;
    return std::filesystem::is_empty(path, ec);
  }
};

// A router started in a process that already hosts a service, its warm
// workers and a Frontend must still certify through every shard. The shard
// children inherit that process's fds and serve state; a warm worker forked
// inside a shard must close only what it did not create, not fd numbers
// that the shard's own pipes now reuse.
TEST(ShardRouterTest, CertifiesNextToAHostedServiceAndFrontend) {
  ReductionService host{ServiceOptions{}};  // the default 2-worker pool
  FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_test_host_" + std::to_string(::getpid()) + ".sock";
  Frontend frontend(host, fo);
  ASSERT_TRUE(frontend.running());

  const SocketDir dir;
  ASSERT_FALSE(dir.path.empty());
  {
    RouterOptions ro = small_router(3);
    ro.socket_dir = dir.path;
    ShardRouter router(ro);
    ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));
    for (unsigned m = 0; m < 16; ++m) {
      const ReductionTask task = parity_task(4, m);
      const RouteResult r = router.submit(task);
      EXPECT_TRUE(r.response.certified)
          << "mask " << m << ": " << r.response.report.detail;
      EXPECT_EQ(r.response.value, task.expected()) << "mask " << m;
    }
  }
  EXPECT_TRUE(dir.is_empty()) << "a shard socket outlived its router";
}

// A router that dies without its destructor (SIGKILL) takes its shards
// with it: each shard holds PR_SET_PDEATHSIG = SIGTERM, drains, and exits.
// This process becomes a child subreaper so the orphaned shards are
// reparented here and their exits can be reaped and checked.
TEST(ShardRouterTest, ShardsDieWithTheirRouter) {
  constexpr std::size_t kShards = 2;
  const SocketDir dir;
  ASSERT_FALSE(dir.path.empty());
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int pids[2];
  ASSERT_EQ(::pipe(pids), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::close(pids[0]);
    RouterOptions ro = small_router(kShards);
    ro.socket_dir = dir.path;
    ShardRouter router(ro);
    for (std::size_t i = 0; i < kShards; ++i) {
      const pid_t p = router.shard_pid(i);
      if (::write(pids[1], &p, sizeof p) != sizeof p) ::_exit(1);
    }
    for (;;) ::pause();  // until the SIGKILL
  }
  ::close(pids[1]);
  std::vector<pid_t> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    pid_t p = -1;
    if (::read(pids[0], &p, sizeof p) != sizeof p) break;
    shards.push_back(p);
  }
  ::close(pids[0]);
  ::kill(helper, SIGKILL);
  int st = 0;
  ::waitpid(helper, &st, 0);
  ASSERT_EQ(shards.size(), kShards);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t gone = 0;
  std::vector<bool> reaped(kShards, false);
  while (gone < kShards && std::chrono::steady_clock::now() < deadline) {
    for (std::size_t i = 0; i < kShards; ++i) {
      if (!reaped[i] && shards[i] > 0 &&
          ::waitpid(shards[i], &st, WNOHANG) == shards[i]) {
        reaped[i] = true;
        ++gone;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_TRUE(reaped[i]) << "shard " << shards[i] << " outlived its router";
    if (!reaped[i] && shards[i] > 0) {
      ::kill(shards[i], SIGKILL);
      ::waitpid(shards[i], &st, 0);
    }
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_TRUE(dir.is_empty()) << "a shard socket outlived its router";
}

}  // namespace
}  // namespace pfact::serve
