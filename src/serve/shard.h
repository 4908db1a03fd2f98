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
// and swept (a static_assert keeps its row table total). A status the
// router could observe but not classify would be exactly the silent
// fallthrough this repo's taxonomies exist to prevent.

#include <chrono>
#include <string>
#include <sys/types.h>
#include <vector>

#include "obs/counters.h"
#include "obs/taxonomy.h"
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
  kCount_,        // sentinel: number of states
};

// Each state's name, the diagnostic a request that needs the shard sees,
// and the counter each transition bumps (so a restart storm shows in the
// counter snapshot). Every non-serving state is a transient moment — the
// shard recovers or its traffic fails over — so none maps to a fatal one.
inline constexpr auto kShardStatusRows = [] {
  using enum robustness::Diagnostic;
  return obs::RowTable<robustness::CountedRow<ShardStatus>>{{
      {ShardStatus::kStarting, "starting", kConnReset,
       obs::Counter::kShardStarting},
      {ShardStatus::kServing, "serving", kOk, obs::Counter::kShardServing},
      {ShardStatus::kUnresponsive, "unresponsive", kDeadlineExceeded,
       obs::Counter::kShardUnresponsive},
      {ShardStatus::kDead, "dead", kWorkerFailure, obs::Counter::kShardDead},
      {ShardStatus::kRestarting, "restarting", kConnReset,
       obs::Counter::kShardRestarting},
  }};
}();
static_assert(obs::is_row_table(kShardStatusRows));

inline const char* shard_status_name(ShardStatus s) {
  return obs::name_of(kShardStatusRows, s);
}
inline robustness::Diagnostic diagnose_shard_status(ShardStatus s) {
  return robustness::diagnosis_of(kShardStatusRows, s);
}
inline obs::Counter shard_status_counter(ShardStatus s) {
  return robustness::counter_of(kShardStatusRows, s, obs::Counter::kShardDead);
}
// The sweep the --shard soak's campaigns must each produce and survive.
inline const std::vector<ShardStatus>& all_shard_statuses() {
  return obs::sweep_of<kShardStatusRows>();
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
