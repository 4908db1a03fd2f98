#include "obs/counters.h"

#include <deque>

#include "obs/taxonomy.h"
#include "parallel/annotations.h"

namespace pfact::obs {

// The JSON key of every counter, one row per enumerator in enum order.
constexpr RowTable<NameRow<Counter>> kCounterRows = {{
    {Counter::kElimSteps, "elim-steps"},
    {Counter::kPivotScanRows, "pivot-scan-rows"},
    {Counter::kPivotKeeps, "pivot-keeps"},
    {Counter::kPivotSwaps, "pivot-swaps"},
    {Counter::kPivotShifts, "pivot-shifts"},
    {Counter::kPivotSkips, "pivot-skips"},
    {Counter::kRowUpdates, "row-updates"},
    {Counter::kRowUpdateElems, "row-update-elems"},
    {Counter::kGivensRotations, "givens-rotations"},
    {Counter::kGivensStages, "givens-stages"},
    {Counter::kHouseholderReflections, "householder-reflections"},
    {Counter::kTriangularSolves, "triangular-solves"},
    {Counter::kGuardTicks, "guard-ticks"},
    {Counter::kSoftFloatAdds, "softfloat-adds"},
    {Counter::kSoftFloatMuls, "softfloat-muls"},
    {Counter::kSoftFloatDivs, "softfloat-divs"},
    {Counter::kSoftFloatSqrts, "softfloat-sqrts"},
    {Counter::kSoftFloatRoundNearestEven, "softfloat-round-nearest-even"},
    {Counter::kSoftFloatRoundTowardZero, "softfloat-round-toward-zero"},
    {Counter::kSoftFloatRoundAwayFromZero, "softfloat-round-away-from-zero"},
    {Counter::kBigIntAllocs, "bigint-allocs"},
    {Counter::kBigIntLimbsAllocated, "bigint-limbs-allocated"},
    {Counter::kBigIntMuls, "bigint-muls"},
    {Counter::kBigIntDivs, "bigint-divs"},
    {Counter::kPoolTasksSubmitted, "pool-tasks-submitted"},
    {Counter::kPoolChunksRun, "pool-chunks-run"},
    {Counter::kParallelForCalls, "parallel-for-calls"},
    {Counter::kRankQueries, "rank-queries"},
    {Counter::kFaultsInjected, "faults-injected"},
    {Counter::kFaultsDetected, "faults-detected"},
    {Counter::kRetryAttempts, "retry-attempts"},
    {Counter::kEscalations, "escalations"},
    {Counter::kCheckpointSaves, "checkpoint-saves"},
    {Counter::kCheckpointBytes, "checkpoint-bytes"},
    {Counter::kCheckpointResumes, "checkpoint-resumes"},
    {Counter::kCheckpointRejects, "checkpoint-rejects"},
    {Counter::kWorkerSpawns, "worker-spawns"},
    {Counter::kWorkerCrashes, "worker-crashes"},
    {Counter::kWorkerWatchdogKills, "worker-watchdog-kills"},
    {Counter::kWorkerResumeHandoffs, "worker-resume-handoffs"},
    {Counter::kServeForkFailures, "serve-fork-failures"},
    {Counter::kServeWarmJobs, "serve-warm-jobs"},
    {Counter::kServeWorkerRecycles, "serve-worker-recycles"},
    {Counter::kServeJobsSubmitted, "serve-jobs-submitted"},
    {Counter::kServeJobsShed, "serve-jobs-shed"},
    {Counter::kServeCacheHits, "serve-cache-hits"},
    {Counter::kServeCacheMisses, "serve-cache-misses"},
    {Counter::kServeCacheFills, "serve-cache-fills"},
    {Counter::kServeCacheEvictions, "serve-cache-evictions"},
    {Counter::kServeCacheCorrupt, "serve-cache-corrupt"},
    {Counter::kSparseBuilds, "sparse-builds"},
    {Counter::kSparseTripletsCoalesced, "sparse-triplets-coalesced"},
    {Counter::kSparseFillIns, "sparse-fill-ins"},
    {Counter::kSparseZeroDrops, "sparse-zero-drops"},
    {Counter::kDenseStorageBytes, "dense-storage-bytes"},
    {Counter::kSparseStorageBytes, "sparse-storage-bytes"},
    {Counter::kFrontendConnsAccepted, "frontend-conns-accepted"},
    {Counter::kFrontendAccepted, "frontend-accepted"},
    {Counter::kFrontendMalformed, "frontend-malformed"},
    {Counter::kFrontendDeadlineEvictions, "frontend-deadline-evictions"},
    {Counter::kFrontendConnResets, "frontend-conn-resets"},
    {Counter::kFrontendOverloadSheds, "frontend-overload-sheds"},
    {Counter::kFrontendDrainRefusals, "frontend-drain-refusals"},
    {Counter::kFrontendBytesRead, "frontend-bytes-read"},
    {Counter::kFrontendBytesWritten, "frontend-bytes-written"},
    {Counter::kClientRetries, "client-retries"},
    {Counter::kClientStaleReconnects, "client-stale-reconnects"},
    {Counter::kFrontendProbes, "frontend-probes"},
    {Counter::kRouterRoutes, "router-routes"},
    {Counter::kRouterFailovers, "router-failovers"},
    {Counter::kRouterBrownoutSheds, "router-brownout-sheds"},
    {Counter::kRouterAllShardsDown, "router-all-shards-down"},
    {Counter::kRouterRestarts, "router-restarts"},
    {Counter::kRouterProbes, "router-probes"},
    {Counter::kShardServing, "shard-serving"},
    {Counter::kShardStarting, "shard-starting"},
    {Counter::kShardUnresponsive, "shard-unresponsive"},
    {Counter::kShardDead, "shard-dead"},
    {Counter::kShardRestarting, "shard-restarting"},
}};

constexpr RowTable<NameRow<Histogram>> kHistogramRows = {{
    {Histogram::kPivotMoveDistance, "pivot-move-distance"},
    {Histogram::kBigIntLimbs, "bigint-limbs"},
    {Histogram::kSpanDurationUs, "span-duration-us"},
    {Histogram::kQueueDepth, "queue-depth"},
    {Histogram::kSparseRowNnz, "sparse-row-nnz"},
}};

static_assert(is_row_table(kCounterRows));
static_assert(is_row_table(kHistogramRows));
// One JSON namespace: a histogram may not reuse a counter's key.
static_assert(names_disjoint(kCounterRows, kHistogramRows));

const char* counter_name(Counter c) {
  return name_of(kCounterRows, c);
}

const char* histogram_name(Histogram h) {
  return name_of(kHistogramRows, h);
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
