#pragma once
// ShardRouter: the self-healing parent over N shard processes (shard.h).
//
// One router owns N forked shards, each a private ReductionService behind
// its own Unix socket. Requests are routed by consistent hashing of the
// ResultCache content address — the same key the shard's own cache files
// the answer under — so a task's repeats land on the same shard and hit its
// cache, and the mapping survives shard-count changes with only ~1/N of
// keys moving (virtual-node hash ring, not modulo).
//
// The robustness contract, in the order the failure hits it:
//
//   * bulkhead isolation — the router talks to shards only through bounded
//     socket I/O (client deadlines, probe deadlines). A SIGKILLed or wedged
//     shard can cost its own capacity, never the router's poll loop: a
//     probe that misses its deadline evicts the shard with SIGKILL.
//   * failover — a submit that dies transiently (conn reset, deadline,
//     shard-side shed) walks the ring to the next surviving shard. The
//     resubmitted task is re-verified from scratch by that shard's
//     supervisor (worker cross-check + envelope re-check), so at-most-once
//     delivery of a *wrong* answer is structurally impossible — a failover
//     can repeat work, never repeat trust.
//   * self-healing — the supervisor thread forks every shard (so each
//     shard's PR_SET_PDEATHSIG is tied to a thread that lives as long as
//     the router), reaps deaths with waitpid and classifies them through
//     the PR 5 WorkerExit machinery; restarts wait out a seeded RetryPolicy
//     backoff (bit-reproducible: same seed, same restart schedule), armed
//     as a not-before deadline so the supervision loop never sleeps in a
//     way PL018 would have to waiver.
//   * brownout degradation — with any shard down (or aggregate in-flight
//     work over the high-water mark) the router sheds FRESH keys as
//     kOverloaded but keeps routing keys it has served before, which are
//     exactly the ones a surviving shard can answer from cache. Partial
//     failure degrades capacity, not availability of what is already warm.
//
// RouterStatus classifies every submit outcome (PL019 keeps the four legs
// total, like FrontendStatus under PL012): routed, failed-over, shed, or
// refused with every shard down. Zero unclassified endings is the --shard
// soak's availability contract.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/counters.h"
#include "parallel/annotations.h"
#include "robustness/diagnostics.h"
#include "robustness/retry.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/shard.h"
#include "serve/warm_pool.h"

namespace pfact::serve {

// Every way one routed submit can end. Total: a request either reaches its
// home shard, fails over to a survivor, is shed by brownout admission, or
// is refused because nothing is alive — there is no fifth ending.
enum class RouterStatus {
  kRouted,        // answered by the consistent-hash home shard
  kFailedOver,    // answered by a survivor after the home shard failed
  kBrownoutShed,  // fresh work refused while degraded (classified, retryable)
  kAllShardsDown, // no shard could take it: the full-outage refusal
};

inline const char* router_status_name(RouterStatus s) {
  switch (s) {
    case RouterStatus::kRouted: return "routed";
    case RouterStatus::kFailedOver: return "failed-over";
    case RouterStatus::kBrownoutShed: return "brownout-shed";
    case RouterStatus::kAllShardsDown: return "all-shards-down";
  }
  return "?";
}

// The sweepable taxonomy, for the --shard soak's coverage contract.
inline const std::vector<RouterStatus>& all_router_statuses() {
  static const std::vector<RouterStatus> statuses = {
      RouterStatus::kRouted, RouterStatus::kFailedOver,
      RouterStatus::kBrownoutShed, RouterStatus::kAllShardsDown};
  return statuses;
}

// What the caller's retry table should think happened. Both shed shapes are
// transient — brownouts clear when the dead shard restarts, and a full
// outage clears when any restart lands — so a client retrying with backoff
// eventually gets through; neither is ever fatal.
inline robustness::Diagnostic diagnose_router_status(RouterStatus s) {
  switch (s) {
    case RouterStatus::kRouted: return robustness::Diagnostic::kOk;
    case RouterStatus::kFailedOver: return robustness::Diagnostic::kOk;
    case RouterStatus::kBrownoutShed:
      return robustness::Diagnostic::kOverloaded;
    case RouterStatus::kAllShardsDown:
      return robustness::Diagnostic::kConnReset;
  }
  return robustness::Diagnostic::kInternalError;
}

// Monitoring leg: one counter per ending, so shed rate and failover rate
// are readable straight off the counter snapshot.
inline obs::Counter router_status_counter(RouterStatus s) {
  switch (s) {
    case RouterStatus::kRouted: return obs::Counter::kRouterRoutes;
    case RouterStatus::kFailedOver: return obs::Counter::kRouterFailovers;
    case RouterStatus::kBrownoutShed:
      return obs::Counter::kRouterBrownoutSheds;
    case RouterStatus::kAllShardsDown:
      return obs::Counter::kRouterAllShardsDown;
  }
  return obs::Counter::kRouterAllShardsDown;
}

struct RouterOptions {
  std::size_t shards = 3;
  // Virtual ring nodes per shard: more nodes, smoother key spread and less
  // movement when the shard count changes.
  std::size_t replicas = 16;
  // Per-shard service template (pool size, queue depth, cache capacity).
  ServiceOptions service;
  // Directory the shard sockets are created in.
  std::string socket_dir = "/tmp";
  // Heartbeat cadence and the per-probe answer deadline (the bulkhead: a
  // serving shard that misses it is evicted with SIGKILL).
  std::chrono::milliseconds probe_interval{50};
  std::chrono::milliseconds probe_deadline{250};
  // Grace for a freshly forked shard to bind its socket before the prober
  // may treat silence as a wedge.
  std::chrono::milliseconds startup_grace{5000};
  // Seeded restart backoff, bit-reproducible like every RetryPolicy.
  robustness::RetryPolicy restart;
  // Brownout high-water mark: aggregate in-flight submits above this shed
  // fresh keys even with every shard healthy.
  std::size_t brownout_high_water = 64;
  // Per-attempt transport knobs for shard submits (response deadline). The
  // router does its own failover, so the client itself never retries.
  std::chrono::milliseconds response_deadline{10'000};
};

// One submit's classified outcome. `response` always carries a decodable
// verdict: the shard's own FrontendResponse when one answered, or a
// router-synthesized classified refusal (kOverloaded / kConnReset) so that
// every request ends explained even mid-restart-storm.
struct RouteResult {
  RouterStatus status = RouterStatus::kAllShardsDown;
  std::size_t shard = 0;      // shard that answered (valid unless shed/down)
  std::size_t home = 0;       // the consistent-hash home shard
  std::size_t failovers = 0;  // shards tried and lost before the answer
  FrontendResponse response;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter();  // SIGTERM + reap every shard, join the supervisor

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Routes one task: consistent-hash home pick, brownout admission, bounded
  // submit, ring-walk failover. Blocking; safe from multiple threads.
  RouteResult submit(const robustness::ReductionTask& task);

  // The ring's home shard for this task (exposed so tests and the soak can
  // assert cache locality without re-deriving the hash).
  std::size_t home_shard(const robustness::ReductionTask& task) const;

  // Blocks until every shard probes healthy or the timeout expires.
  bool wait_all_serving(std::chrono::milliseconds timeout);

  // True while the router is degraded (any shard not serving, or in-flight
  // work over the high-water mark): fresh keys are being shed.
  bool browned_out() const;

  // The seeded restart schedule (delay before restart number `attempt`,
  // 1-based) — bit-reproducible, so soak campaigns replay exactly.
  std::chrono::milliseconds restart_delay(std::size_t attempt) const {
    return options_.restart.backoff(attempt);
  }

  std::size_t shard_count() const { return shards_.size(); }
  ShardStatus shard_status(std::size_t index) const;
  pid_t shard_pid(std::size_t index) const;

  // Test/soak seam: deliver `sig` to a shard process (SIGKILL, SIGSEGV,
  // SIGSTOP...) — the supervision loop must classify and heal the result.
  bool kill_shard_for_testing(std::size_t index, int sig);

  struct Stats {
    std::uint64_t submits = 0;
    std::uint64_t by_status[4] = {0, 0, 0, 0};  // indexed by RouterStatus
    std::uint64_t failover_hops = 0;   // total extra shards walked
    std::uint64_t restarts = 0;        // shard respawns
    std::uint64_t evictions = 0;       // SIGKILLs for missed probes
    std::uint64_t probes = 0;          // heartbeats sent
    std::uint64_t probe_failures = 0;  // heartbeats unanswered
    // ShardStatus states ever observed (indexed by ShardStatus) — the
    // --shard soak's taxonomy-coverage sweep reads this.
    std::uint64_t shard_status_seen[5] = {0, 0, 0, 0, 0};
    // Cache-locality numerator/denominator: answered-by-home vs answered.
    std::uint64_t answered = 0;
    std::uint64_t answered_by_home = 0;
    std::uint64_t status(RouterStatus s) const {
      return by_status[static_cast<std::size_t>(s)];
    }
  };
  Stats stats() const;

 private:
  struct Shard {
    ShardSpec spec;
    pid_t pid = -1;
    ShardStatus status = ShardStatus::kStarting;
    WorkerExit last_exit = WorkerExit::kCompleted;  // of the last death
    std::size_t restart_attempt = 0;   // consecutive deaths (backoff input)
    std::chrono::steady_clock::time_point restart_not_before{};
    std::chrono::steady_clock::time_point started_at{};
  };

  void supervise();
  // Forks shard `s`; on failure arms the next seeded-backoff attempt.
  bool launch(Shard& s, std::chrono::steady_clock::time_point now)
      PFACT_REQUIRES(mu_);
  void set_status(Shard& s, ShardStatus status) PFACT_REQUIRES(mu_);
  void reap_and_heal(std::chrono::steady_clock::time_point now);
  void probe_round(std::chrono::steady_clock::time_point now);
  std::size_t ring_successor(std::uint64_t hash) const;

  RouterOptions options_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;  // sorted points

  mutable par::Mutex mu_;
  std::vector<Shard> shards_ PFACT_GUARDED_BY(mu_);
  Stats stats_ PFACT_GUARDED_BY(mu_);
  std::unordered_set<std::string> served_keys_ PFACT_GUARDED_BY(mu_);
  bool stopping_ PFACT_GUARDED_BY(mu_) = false;
  bool launched_ PFACT_GUARDED_BY(mu_) = false;  // first forks done
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> not_serving_{0};  // shards currently != kServing
  std::condition_variable wake_;  // supervision tick / shutdown wakeup
  std::thread supervisor_;
};

}  // namespace pfact::serve
