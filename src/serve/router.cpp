#include "serve/router.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "serve/result_cache.h"

namespace pfact::serve {

namespace {

// FNV-1a 64 over the content-address key: the stable, process-independent
// half of the routing hash. The ring points themselves come from mix64, so
// both halves are deterministic — two routers with the same configuration
// agree on every key's home shard.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Supervision cadence: the loop must tick at least this often even when the
// probe interval is long, so shutdown and restart deadlines stay prompt.
constexpr std::chrono::milliseconds kMaxTick{25};

}  // namespace

ShardRouter::ShardRouter(RouterOptions options) : options_(std::move(options)) {
  // A shard that dies while the router writes to it must surface as a
  // classified EPIPE in the client machinery, never a SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);
  if (options_.shards == 0) options_.shards = 1;
  if (options_.replicas == 0) options_.replicas = 1;

  // Virtual-node hash ring: `replicas` deterministic points per shard,
  // sorted once. Changing the shard count re-homes only the keys whose ring
  // successor changed (~1/N of them) — the consistent-hashing property that
  // keeps caches warm across resizes.
  ring_.reserve(options_.shards * options_.replicas);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    for (std::size_t r = 0; r < options_.replicas; ++r) {
      ring_.emplace_back(
          robustness::mix64(0x9E3779B97F4A7C15ull ^ i, r + 1), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  static std::atomic<std::uint64_t> router_serial{0};
  const std::uint64_t serial = ++router_serial;
  par::MutexLock lock(mu_);
  shards_.resize(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    Shard& s = shards_[i];
    s.spec.index = i;
    s.spec.unix_path = options_.socket_dir + "/pfact_shard_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(serial) + "_" + std::to_string(i) +
                       ".sock";
    s.spec.service = options_.service;
    // The router is the retry layer, so its clients make one attempt each.
    // A respawned shard keeps its path, so these clients outlive it: their
    // idle sockets to the dead process fail as stale and are replaced.
    ClientOptions co;
    co.unix_path = s.spec.unix_path;
    co.retry.max_attempts = 1;
    co.response_deadline = options_.response_deadline;
    clients_.push_back(std::make_unique<Client>(std::move(co)));
  }
  // The supervisor thread forks the first shards, as it forks every
  // respawn; the router is not constructed until they exist.
  supervisor_ = std::thread(&ShardRouter::supervise, this);
  while (!launched_) lock.wait(wake_);
}

ShardRouter::~ShardRouter() {
  {
    par::MutexLock lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();

  // Graceful first: SIGTERM lets each shard drain its frontend and retire
  // its warm workers. A shard that cannot comply within the grace window
  // (wedged, SIGSTOPped) is SIGKILLed — which reaps unconditionally, so the
  // destructor never hangs on a misbehaving child.
  std::vector<std::pair<pid_t, std::string>> live;
  {
    par::MutexLock lock(mu_);
    for (Shard& s : shards_) {
      if (s.pid > 0) {
        ::kill(s.pid, SIGTERM);
        live.emplace_back(s.pid, s.spec.unix_path);
      } else {
        ::unlink(s.spec.unix_path.c_str());
      }
      s.pid = -1;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  while (!live.empty() && std::chrono::steady_clock::now() < deadline) {
    for (auto it = live.begin(); it != live.end();) {
      int st = 0;
      if (::waitpid(it->first, &st, WNOHANG) == it->first) {
        ::unlink(it->second.c_str());
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    if (live.empty()) break;
    par::MutexLock lock(mu_);
    lock.wait_for(wake_, std::chrono::milliseconds(10));
  }
  for (auto& [pid, path] : live) {
    ::kill(pid, SIGKILL);
    int st = 0;
    ::waitpid(pid, &st, 0);
    ::unlink(path.c_str());
  }
}

bool ShardRouter::launch(Shard& s, std::chrono::steady_clock::time_point now) {
  ::unlink(s.spec.unix_path.c_str());
  s.pid = spawn_shard(s.spec);
  if (s.pid < 0) {
    // fork() itself failed: the ordinary heal path — a seeded-backoff
    // respawn, like any death.
    s.last_exit = WorkerExit::kForkFailure;
    ++s.restart_attempt;
    s.restart_not_before = now + options_.restart.backoff(s.restart_attempt);
    return false;
  }
  s.started_at = now;
  set_status(s, ShardStatus::kStarting);
  return true;
}

void ShardRouter::set_status(Shard& s, ShardStatus status) {
  s.status = status;
  obs::bump(shard_status_counter(status));
  ++stats_.shard_status_seen[static_cast<std::size_t>(status)];
  std::size_t down = 0;
  for (const Shard& sh : shards_) {
    if (sh.status != ShardStatus::kServing) ++down;
  }
  not_serving_.store(down, std::memory_order_relaxed);
  wake_.notify_all();
}

std::size_t ShardRouter::ring_successor(std::uint64_t hash) const {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(hash, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::size_t ShardRouter::home_shard(
    const robustness::ReductionTask& task) const {
  return ring_successor(
      fnv1a(ResultCache::key_for(task, robustness::Substrate::kDouble)));
}

bool ShardRouter::browned_out() const {
  return not_serving_.load(std::memory_order_relaxed) > 0 ||
         in_flight_.load(std::memory_order_relaxed) >
             options_.brownout_high_water;
}

ShardStatus ShardRouter::shard_status(std::size_t index) const {
  par::MutexLock lock(mu_);
  return shards_[index].status;
}

pid_t ShardRouter::shard_pid(std::size_t index) const {
  par::MutexLock lock(mu_);
  return shards_[index].pid;
}

bool ShardRouter::kill_shard_for_testing(std::size_t index, int sig) {
  par::MutexLock lock(mu_);
  if (index >= shards_.size() || shards_[index].pid <= 0) return false;
  return ::kill(shards_[index].pid, sig) == 0;
}

bool ShardRouter::wait_all_serving(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  par::MutexLock lock(mu_);
  for (;;) {
    bool all = true;
    for (const Shard& s : shards_) {
      all = all && s.status == ShardStatus::kServing;
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    lock.wait_for(wake_, kMaxTick);
  }
}

ShardRouter::Stats ShardRouter::stats() const {
  par::MutexLock lock(mu_);
  return stats_;
}

RouteResult ShardRouter::submit(const robustness::ReductionTask& task) {
  PFACT_SPAN("serve.router");
  const std::string key =
      ResultCache::key_for(task, robustness::Substrate::kDouble);
  const std::uint64_t hash = fnv1a(key);

  RouteResult rr;
  rr.home = ring_successor(hash);

  in_flight_.fetch_add(1, std::memory_order_relaxed);
  bool fresh;
  {
    par::MutexLock lock(mu_);
    ++stats_.submits;
    fresh = served_keys_.count(hash) == 0;
  }

  auto finalize = [&](RouteResult& out) -> RouteResult& {
    obs::bump(router_status_counter(out.status));
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    par::MutexLock lock(mu_);
    ++stats_.by_status[static_cast<std::size_t>(out.status)];
    stats_.failover_hops += out.failovers;
    return out;
  };

  // Brownout admission: degraded capacity sheds FRESH keys (classified,
  // retryable) but keeps routing keys served before — those are the ones a
  // surviving shard answers from its cache, so the warm working set stays
  // available through the failure.
  if (browned_out() && fresh) {
    rr.status = RouterStatus::kBrownoutShed;
    rr.response.status = FrontendStatus::kOverloaded;
    rr.response.report.diagnostic = robustness::Diagnostic::kOverloaded;
    rr.response.report.detail =
        "router brownout: fresh work shed while degraded";
    return finalize(rr);
  }

  // Walk the ring from the home point, trying each distinct shard at most
  // once. Known-dead shards are skipped without burning a connection; a
  // live-looking shard that fails transiently costs one bounded attempt.
  std::vector<std::size_t> order;
  order.reserve(options_.shards);
  {
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(hash, std::size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t step = 0; step < ring_.size(); ++step) {
      if (it == ring_.end()) it = ring_.begin();
      if (std::find(order.begin(), order.end(), it->second) == order.end()) {
        order.push_back(it->second);
      }
      ++it;
    }
  }

  bool have_decoded_refusal = false;
  FrontendResponse last_refusal;
  for (const std::size_t idx : order) {
    ShardStatus st;
    {
      par::MutexLock lock(mu_);
      st = shards_[idx].status;
    }
    if (st != ShardStatus::kServing && st != ShardStatus::kStarting) {
      ++rr.failovers;  // known-bad: skip, this hop is the failover
      continue;
    }
    const ClientResult res = clients_[idx]->submit(task);
    const bool decoded = res.wire == WireStatus::kOk;
    if (res.ok) {
      rr.shard = idx;
      rr.status = (idx == rr.home && rr.failovers == 0)
                      ? RouterStatus::kRouted
                      : RouterStatus::kFailedOver;
      rr.response = res.response;
      {
        par::MutexLock lock(mu_);
        served_keys_.insert(hash);
        ++stats_.answered;
        if (idx == rr.home) ++stats_.answered_by_home;
      }
      return finalize(rr);
    }
    if (decoded && res.outcome != robustness::FailureKind::kTransient) {
      // The shard delivered a definitive classified verdict (bad input,
      // deterministic failure): failing over would just recompute the same
      // answer. Deliver it.
      rr.shard = idx;
      rr.status = (idx == rr.home && rr.failovers == 0)
                      ? RouterStatus::kRouted
                      : RouterStatus::kFailedOver;
      rr.response = res.response;
      return finalize(rr);
    }
    if (decoded) {
      have_decoded_refusal = true;
      last_refusal = res.response;
    }
    ++rr.failovers;  // transient death or shed: walk on
  }

  // Every shard skipped, shed, or died on us. Still a classified ending:
  // the last decoded refusal (e.g. kOverloaded from a saturated survivor)
  // when one exists, else the synthesized full-outage refusal.
  rr.status = RouterStatus::kAllShardsDown;
  if (have_decoded_refusal) {
    rr.response = last_refusal;
  } else {
    rr.response.status = FrontendStatus::kConnReset;
    rr.response.report.diagnostic = robustness::Diagnostic::kConnReset;
    rr.response.report.detail = "no shard alive to take the request";
  }
  return finalize(rr);
}

void ShardRouter::supervise() {
  const auto tick = std::max(std::chrono::milliseconds(1),
                             std::min(kMaxTick, options_.probe_interval));
  auto next_probe = std::chrono::steady_clock::now();
  {
    par::MutexLock lock(mu_);
    for (Shard& s : shards_) {
      if (!launch(s, next_probe)) set_status(s, ShardStatus::kRestarting);
    }
    launched_ = true;
  }
  wake_.notify_all();
  for (;;) {
    {
      par::MutexLock lock(mu_);
      if (stopping_) return;
      lock.wait_for(wake_, tick);
      if (stopping_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    reap_and_heal(now);
    if (now >= next_probe) {
      probe_round(now);
      next_probe = now + options_.probe_interval;
    }
  }
}

void ShardRouter::reap_and_heal(std::chrono::steady_clock::time_point now) {
  par::MutexLock lock(mu_);
  for (Shard& s : shards_) {
    if (s.pid > 0) {
      int status = 0;
      const pid_t reaped = ::waitpid(s.pid, &status, WNOHANG);
      if (reaped == s.pid) {
        WorkerRun run;
        classify_wait_status(status, /*watchdog_fired=*/false,
                             std::chrono::milliseconds{0}, run);
        s.last_exit = run.exit;
        s.pid = -1;
        set_status(s, ShardStatus::kDead);
        // Arm the seeded-backoff respawn: a not-before deadline, never a
        // sleep — the loop keeps ticking for every other shard meanwhile.
        ++s.restart_attempt;
        s.restart_not_before =
            now + options_.restart.backoff(s.restart_attempt);
        set_status(s, ShardStatus::kRestarting);
      }
    }
    if (s.status == ShardStatus::kRestarting && s.pid <= 0 &&
        now >= s.restart_not_before && launch(s, now)) {
      ++stats_.restarts;
      PFACT_COUNT(kRouterRestarts);
    }
  }
}

void ShardRouter::probe_round(std::chrono::steady_clock::time_point now) {
  PFACT_SPAN("serve.router.probe");
  struct Target {
    std::size_t index;
    pid_t pid;
    std::string path;
    ShardStatus status;
    std::chrono::steady_clock::time_point started_at;
  };
  std::vector<Target> targets;
  {
    par::MutexLock lock(mu_);
    for (const Shard& s : shards_) {
      if (s.status == ShardStatus::kServing ||
          s.status == ShardStatus::kStarting) {
        targets.push_back(
            {s.spec.index, s.pid, s.spec.unix_path, s.status, s.started_at});
      }
    }
  }
  for (const Target& t : targets) {
    PFACT_COUNT(kRouterProbes);
    const bool acked = probe_shard(t.path, options_.probe_deadline);
    par::MutexLock lock(mu_);
    ++stats_.probes;
    Shard& s = shards_[t.index];
    // A shard that died or respawned since the snapshot is the reaper's
    // business, not this probe's.
    if (s.pid != t.pid || s.status != t.status) continue;
    if (acked) {
      if (s.status != ShardStatus::kServing) {
        s.restart_attempt = 0;  // healthy again: clean backoff slate
        set_status(s, ShardStatus::kServing);
      }
      continue;
    }
    ++stats_.probe_failures;
    if (s.status == ShardStatus::kStarting &&
        now - s.started_at < options_.startup_grace) {
      continue;  // still booting: silence is not yet a verdict
    }
    // Bulkhead eviction: a serving shard (or one past its startup grace)
    // that cannot echo a probe is wedged — SIGKILL it so the reaper can
    // classify the death and the ring can route around it. The router's
    // own loop never blocked for more than one bounded probe.
    ++stats_.evictions;
    set_status(s, ShardStatus::kUnresponsive);
    if (s.pid > 0) ::kill(s.pid, SIGKILL);
  }
}

}  // namespace pfact::serve
