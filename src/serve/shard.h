#pragma once
// Shard process: one self-contained reduction service behind its own Unix
// socket — the unit the shard router (router.h) forks, probes, kills, and
// respawns.
//
// A shard child owns a private ReductionService (its own WarmPool, admission
// queue, and ResultCache) fronted by the existing poll()-driven Frontend, so
// every byte it speaks is the PFRM framing and every refusal is a classified
// FrontendStatus — sharding adds a routing layer, not a second protocol. The
// parent keeps only a ShardSpec (how to respawn it) and a pid; everything
// else about a shard is observable strictly through its socket, which is
// what makes the bulkhead honest: a wedged shard cannot corrupt router state
// it never shares.
//
// ShardStatus is the router's view of one shard's lifecycle, and it is a
// closed taxonomy in the FrontendStatus mold — named, diagnosed, counted,
// and swept (pfact_lint rule PL019 keeps the four legs total). A status the
// router could observe but not classify would be exactly the silent
// fallthrough this repo's taxonomies exist to prevent.

#include <chrono>
#include <string>
#include <sys/types.h>
#include <vector>

#include "obs/counters.h"
#include "robustness/diagnostics.h"
#include "serve/queue.h"

namespace pfact::serve {

// The router's view of one shard's lifecycle. Total: at any instant a shard
// is in exactly one state, and every state transition is counted.
enum class ShardStatus {
  kStarting,      // forked; socket not yet probed healthy
  kServing,       // last heartbeat probe acked within its deadline
  kUnresponsive,  // probe deadline expired: evicted with SIGKILL (bulkhead)
  kDead,          // reaped by waitpid; death classified via WorkerExit
  kRestarting,    // waiting out the seeded restart backoff before respawn
};

inline const char* shard_status_name(ShardStatus s) {
  switch (s) {
    case ShardStatus::kStarting: return "starting";
    case ShardStatus::kServing: return "serving";
    case ShardStatus::kUnresponsive: return "unresponsive";
    case ShardStatus::kDead: return "dead";
    case ShardStatus::kRestarting: return "restarting";
  }
  return "?";
}

// The sweepable taxonomy, for the --shard soak's full-coverage contract:
// every state a shard can be in must actually be produced and survived by a
// real campaign (kills, wedges, restart storms).
inline const std::vector<ShardStatus>& all_shard_statuses() {
  static const std::vector<ShardStatus> statuses = {
      ShardStatus::kStarting, ShardStatus::kServing,
      ShardStatus::kUnresponsive, ShardStatus::kDead,
      ShardStatus::kRestarting};
  return statuses;
}

// What a request that needs this shard should think happened. Every
// non-serving state is a transient property of the moment — a booting,
// wedged, dead, or backing-off shard recovers (or its traffic fails over) —
// so each maps to a retryable diagnostic, never a fatal one.
inline robustness::Diagnostic diagnose_shard_status(ShardStatus s) {
  switch (s) {
    case ShardStatus::kStarting: return robustness::Diagnostic::kConnReset;
    case ShardStatus::kServing: return robustness::Diagnostic::kOk;
    case ShardStatus::kUnresponsive:
      return robustness::Diagnostic::kDeadlineExceeded;
    case ShardStatus::kDead: return robustness::Diagnostic::kWorkerFailure;
    case ShardStatus::kRestarting:
      return robustness::Diagnostic::kConnReset;
  }
  return robustness::Diagnostic::kInternalError;
}

// Monitoring leg: each state transition bumps its own counter, so a restart
// storm or a flapping shard is visible in the counter snapshot, not just in
// the router's logs.
inline obs::Counter shard_status_counter(ShardStatus s) {
  switch (s) {
    case ShardStatus::kStarting: return obs::Counter::kShardStarting;
    case ShardStatus::kServing: return obs::Counter::kShardServing;
    case ShardStatus::kUnresponsive:
      return obs::Counter::kShardUnresponsive;
    case ShardStatus::kDead: return obs::Counter::kShardDead;
    case ShardStatus::kRestarting: return obs::Counter::kShardRestarting;
  }
  return obs::Counter::kShardDead;
}

// Everything needed to fork (and re-fork, bit-identically) one shard.
struct ShardSpec {
  std::size_t index = 0;    // stable identity: ring position + log label
  std::string unix_path;    // the shard's own listener socket
  ServiceOptions service;   // private pool/queue/cache configuration
};

// Forks a shard child. The child builds a ReductionService + Frontend on
// spec.unix_path and serves until SIGTERM (graceful drain) or a harder
// death; it never returns. The parent gets the pid, or -1 if fork failed.
// The child also receives SIGTERM when the calling THREAD exits
// (PR_SET_PDEATHSIG), so call this from a thread that lives as long as the
// shard should.
pid_t spawn_shard(const ShardSpec& spec);

// One blocking heartbeat: connect to `unix_path`, send an empty kProbe
// frame, and wait for the echo within `deadline`. True only on a verified
// echo — a shard whose event loop cannot answer this is wedged or dead,
// whatever its pid says.
bool probe_shard(const std::string& unix_path,
                 std::chrono::milliseconds deadline);

}  // namespace pfact::serve
