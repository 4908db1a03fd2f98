#include "obs/counters.h"

#include <deque>

#include "parallel/annotations.h"

namespace pfact::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kElimSteps: return "elim-steps";
    case Counter::kPivotScanRows: return "pivot-scan-rows";
    case Counter::kPivotKeeps: return "pivot-keeps";
    case Counter::kPivotSwaps: return "pivot-swaps";
    case Counter::kPivotShifts: return "pivot-shifts";
    case Counter::kPivotSkips: return "pivot-skips";
    case Counter::kRowUpdates: return "row-updates";
    case Counter::kRowUpdateElems: return "row-update-elems";
    case Counter::kGivensRotations: return "givens-rotations";
    case Counter::kGivensStages: return "givens-stages";
    case Counter::kHouseholderReflections: return "householder-reflections";
    case Counter::kTriangularSolves: return "triangular-solves";
    case Counter::kGuardTicks: return "guard-ticks";
    case Counter::kSoftFloatAdds: return "softfloat-adds";
    case Counter::kSoftFloatMuls: return "softfloat-muls";
    case Counter::kSoftFloatDivs: return "softfloat-divs";
    case Counter::kSoftFloatSqrts: return "softfloat-sqrts";
    case Counter::kSoftFloatRoundNearestEven:
      return "softfloat-round-nearest-even";
    case Counter::kSoftFloatRoundTowardZero:
      return "softfloat-round-toward-zero";
    case Counter::kSoftFloatRoundAwayFromZero:
      return "softfloat-round-away-from-zero";
    case Counter::kBigIntAllocs: return "bigint-allocs";
    case Counter::kBigIntLimbsAllocated: return "bigint-limbs-allocated";
    case Counter::kBigIntMuls: return "bigint-muls";
    case Counter::kBigIntDivs: return "bigint-divs";
    case Counter::kPoolTasksSubmitted: return "pool-tasks-submitted";
    case Counter::kPoolChunksRun: return "pool-chunks-run";
    case Counter::kParallelForCalls: return "parallel-for-calls";
    case Counter::kRankQueries: return "rank-queries";
    case Counter::kFaultsInjected: return "faults-injected";
    case Counter::kFaultsDetected: return "faults-detected";
    case Counter::kRetryAttempts: return "retry-attempts";
    case Counter::kEscalations: return "escalations";
    case Counter::kCheckpointSaves: return "checkpoint-saves";
    case Counter::kCheckpointBytes: return "checkpoint-bytes";
    case Counter::kCheckpointResumes: return "checkpoint-resumes";
    case Counter::kCheckpointRejects: return "checkpoint-rejects";
    case Counter::kWorkerSpawns: return "worker-spawns";
    case Counter::kWorkerCrashes: return "worker-crashes";
    case Counter::kWorkerWatchdogKills: return "worker-watchdog-kills";
    case Counter::kWorkerResumeHandoffs: return "worker-resume-handoffs";
    case Counter::kServeForkFailures: return "serve-fork-failures";
    case Counter::kServeWarmJobs: return "serve-warm-jobs";
    case Counter::kServeWorkerRecycles: return "serve-worker-recycles";
    case Counter::kServeJobsSubmitted: return "serve-jobs-submitted";
    case Counter::kServeJobsShed: return "serve-jobs-shed";
    case Counter::kServeCacheHits: return "serve-cache-hits";
    case Counter::kServeCacheMisses: return "serve-cache-misses";
    case Counter::kServeCacheFills: return "serve-cache-fills";
    case Counter::kServeCacheEvictions: return "serve-cache-evictions";
    case Counter::kServeCacheCorrupt: return "serve-cache-corrupt";
    case Counter::kSparseBuilds: return "sparse-builds";
    case Counter::kSparseTripletsCoalesced:
      return "sparse-triplets-coalesced";
    case Counter::kSparseFillIns: return "sparse-fill-ins";
    case Counter::kSparseZeroDrops: return "sparse-zero-drops";
    case Counter::kDenseStorageBytes: return "dense-storage-bytes";
    case Counter::kSparseStorageBytes: return "sparse-storage-bytes";
    case Counter::kFrontendConnsAccepted: return "frontend-conns-accepted";
    case Counter::kFrontendAccepted: return "frontend-accepted";
    case Counter::kFrontendMalformed: return "frontend-malformed";
    case Counter::kFrontendDeadlineEvictions:
      return "frontend-deadline-evictions";
    case Counter::kFrontendConnResets: return "frontend-conn-resets";
    case Counter::kFrontendOverloadSheds: return "frontend-overload-sheds";
    case Counter::kFrontendDrainRefusals: return "frontend-drain-refusals";
    case Counter::kFrontendBytesRead: return "frontend-bytes-read";
    case Counter::kFrontendBytesWritten: return "frontend-bytes-written";
    case Counter::kClientRetries: return "client-retries";
    case Counter::kClientStaleReconnects: return "client-stale-reconnects";
    case Counter::kFrontendProbes: return "frontend-probes";
    case Counter::kRouterRoutes: return "router-routes";
    case Counter::kRouterFailovers: return "router-failovers";
    case Counter::kRouterBrownoutSheds: return "router-brownout-sheds";
    case Counter::kRouterAllShardsDown: return "router-all-shards-down";
    case Counter::kRouterRestarts: return "router-restarts";
    case Counter::kRouterProbes: return "router-probes";
    case Counter::kShardServing: return "shard-serving";
    case Counter::kShardStarting: return "shard-starting";
    case Counter::kShardUnresponsive: return "shard-unresponsive";
    case Counter::kShardDead: return "shard-dead";
    case Counter::kShardRestarting: return "shard-restarting";
    case Counter::kCount_: break;
  }
  return "?";
}

const char* histogram_name(Histogram h) {
  switch (h) {
    case Histogram::kPivotMoveDistance: return "pivot-move-distance";
    case Histogram::kBigIntLimbs: return "bigint-limbs";
    case Histogram::kSpanDurationUs: return "span-duration-us";
    case Histogram::kQueueDepth: return "queue-depth";
    case Histogram::kSparseRowNnz: return "sparse-row-nnz";
    case Histogram::kCount_: break;
  }
  return "?";
}

std::uint64_t CounterSnapshot::histogram_total(Histogram h) const {
  std::uint64_t total = 0;
  for (std::uint64_t b : histograms[static_cast<std::size_t>(h)]) total += b;
  return total;
}

CounterDelta operator-(const CounterSnapshot& after,
                       const CounterSnapshot& before) {
  CounterDelta d;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    d.counts[i] = after.counts[i] - before.counts[i];
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      d.histograms[h][b] = after.histograms[h][b] - before.histograms[h][b];
    }
  }
  return d;
}

#if PFACT_OBS_ENABLED

namespace detail {

namespace {

// Blocks are appended, never removed: a thread that exits leaves its totals
// behind (counters are cumulative), and snapshot() never touches freed
// memory. std::deque keeps existing blocks stable across registrations.
// `blocks` (the container) is guarded by `mu`; the atomics INSIDE a block
// are lock-free by design — registered blocks are read outside the lock by
// their owning thread, which is exactly the relaxed-atomic contract.
struct Registry {
  par::Mutex mu;
  std::deque<CounterBlock> blocks PFACT_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

}  // namespace

CounterBlock* this_thread_block() {
  Registry& r = registry();
  par::MutexLock lock(r.mu);
  r.blocks.emplace_back();
  // Escapes the lock on purpose: the block is never freed and its fields
  // are atomics, so the owning thread bumps them lock-free.
  return &r.blocks.back();
}

}  // namespace detail

CounterSnapshot snapshot() {
  CounterSnapshot s;
  detail::Registry& r = detail::registry();
  par::MutexLock lock(r.mu);
  for (const detail::CounterBlock& b : r.blocks) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.counts[i] += b.counts[i].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistograms; ++h) {
      for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
        s.histograms[h][k] +=
            b.histograms[h][k].load(std::memory_order_relaxed);
      }
    }
  }
  return s;
}

#else  // !PFACT_OBS_ENABLED

CounterSnapshot snapshot() { return CounterSnapshot{}; }

#endif  // PFACT_OBS_ENABLED

}  // namespace pfact::obs
