#pragma once
// Operation counters — the quantitative backbone of the observability layer.
//
// The paper's claims are claims about *operation sequences*: GEM/GEP/GQR on a
// reduction matrix A_C must execute a pivot/rotation chain whose length and
// order encode the circuit evaluation, while the NC algorithms trade a much
// larger operation *count* for a short critical path. These counters make
// those quantities measurable on every run: elimination steps, pivot moves by
// kind, Givens rotations, SoftFloat operations by rounding mode, BigInt limb
// allocations, thread-pool chunks, detected fault injections, and so on.
//
// Design constraints (see DESIGN.md section 8):
//   * Near-zero cost when compiled out: every call site goes through the
//     PFACT_COUNT / PFACT_COUNT_N / PFACT_HISTO macros, which expand to
//     ((void)0) when PFACT_OBS_ENABLED is 0 (-DPFACT_OBS=OFF in CMake).
//   * Low overhead when compiled in: one thread-local block of relaxed
//     atomics per thread; an increment is a TLS load plus a relaxed
//     fetch_add. No locks on the hot path.
//   * TSan-clean aggregation: snapshots read every thread's block with
//     relaxed atomic loads; blocks live in a global registry that never
//     frees them, so a snapshot can never race with a dying thread's block.
//
// Counters are cumulative per process. Deltas over a region are taken with
// ScopedCounters (RAII) or by subtracting two CounterSnapshots.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

// Compile-time master switch. CMake defines PFACT_OBS_ENABLED=0 when
// configured with -DPFACT_OBS=OFF; default is on.
#if !defined(PFACT_OBS_ENABLED)
#define PFACT_OBS_ENABLED 1
#endif

namespace pfact::obs {

// The fixed counter taxonomy. Stable kebab-case names (counter_name) are the
// JSON keys of every emitted snapshot — append new counters at the end of
// their group and never reuse a name with a different meaning.
enum class Counter : std::size_t {
  // --- factor/: elimination engines ---------------------------------------
  kElimSteps,          // elimination steps entered (pivot decisions)
  kPivotScanRows,      // rows examined while selecting pivots
  kPivotKeeps,         // pivot already in place
  kPivotSwaps,         // row exchanges (GEP / GEM)
  kPivotShifts,        // circular shifts (GEMS)
  kPivotSkips,         // columns with no usable pivot
  kRowUpdates,         // rank-1 row updates applied
  kRowUpdateElems,     // scalar multiply-subtract element operations

  // --- factor/: orthogonal engines ----------------------------------------
  kGivensRotations,    // rotations actually applied
  kGivensStages,       // parallel stages containing >= 1 rotation
  kHouseholderReflections,
  kTriangularSolves,   // forward/back substitutions run

  // --- factor/: guards -----------------------------------------------------
  kGuardTicks,         // StepGuard budget checks

  // --- numeric/: SoftFloat ops by kind -------------------------------------
  kSoftFloatAdds,      // additions/subtractions
  kSoftFloatMuls,
  kSoftFloatDivs,
  kSoftFloatSqrts,

  // --- numeric/: SoftFloat rounded normalizations by mode ------------------
  kSoftFloatRoundNearestEven,
  kSoftFloatRoundTowardZero,
  kSoftFloatRoundAwayFromZero,

  // --- numeric/: BigInt -----------------------------------------------------
  kBigIntAllocs,       // magnitude vectors allocated
  kBigIntLimbsAllocated,  // total 32-bit limbs in those allocations
  kBigIntMuls,
  kBigIntDivs,

  // --- parallel/ ------------------------------------------------------------
  kPoolTasksSubmitted,  // tasks accepted by ThreadPool::submit
  kPoolChunksRun,       // parallel_for chunks executed (inline run: 1)
  kParallelForCalls,    // parallel_for calls over a non-empty range

  // --- nc/ -------------------------------------------------------------------
  kRankQueries,        // independent prefix-rank computations issued

  // --- robustness/ -----------------------------------------------------------
  kFaultsInjected,     // corruptions the FaultInjector actually performed
  kFaultsDetected,     // guarded runs that classified an injected fault
  kRetryAttempts,      // guarded attempts launched by the resilient driver
  kEscalations,        // substrate-ladder climbs (double -> SoftFloat -> ...)
  kCheckpointSaves,    // mid-factorization checkpoints serialized
  kCheckpointBytes,    // total serialized checkpoint bytes
  kCheckpointResumes,  // runs restarted from a validated checkpoint
  kCheckpointRejects,  // checkpoints refused (CRC / version / truncation)

  // --- serve/: process-isolation worker lifecycle ---------------------------
  kWorkerSpawns,          // worker subprocesses forked
  kWorkerCrashes,         // workers that died without delivering a result
  kWorkerWatchdogKills,   // workers SIGKILLed by the supervisor's watchdog
  kWorkerResumeHandoffs,  // respawns seeded with a verified checkpoint blob

  // --- serve/: warm pool, admission control, result cache -------------------
  kServeForkFailures,     // fork() itself failed (resource exhaustion)
  kServeWarmJobs,         // jobs executed on an already-warm worker
  kServeWorkerRecycles,   // warm workers retired on plan (job quota/rlimits)
  kServeJobsSubmitted,    // jobs offered to the service queue
  kServeJobsShed,         // jobs refused by admission control (classified)
  kServeCacheHits,        // result-cache probes answered from cache
  kServeCacheMisses,      // probes that fell through to the warm pool
  kServeCacheFills,       // verified answers written into the cache
  kServeCacheEvictions,   // entries displaced by capacity bounds
  kServeCacheCorrupt,     // entries rejected on read (CRC/envelope)

  // --- matrix/: sparse backend ----------------------------------------------
  kSparseBuilds,             // triplet builds finalized into a CSR
  kSparseTripletsCoalesced,  // duplicate triplets merged during build
  kSparseFillIns,            // entries created by elimination row updates
  kSparseZeroDrops,          // computed exact zeros dropped, not stored
  kDenseStorageBytes,        // bytes of dense matrix storage benchmarked
  kSparseStorageBytes,       // bytes of sparse CSR storage benchmarked

  // --- serve/: socket front end ---------------------------------------------
  kFrontendConnsAccepted,     // connections accept()ed by the listener
  kFrontendAccepted,          // requests admitted and answered (kAccepted)
  kFrontendMalformed,         // frames/payloads refused as kMalformedFrame
  kFrontendDeadlineEvictions, // slow clients evicted at a read/write deadline
  kFrontendConnResets,        // peers that vanished mid-frame (kConnReset)
  kFrontendOverloadSheds,     // conn-bound / queue-full refusals (kOverloaded)
  kFrontendDrainRefusals,     // requests refused while draining (kDraining)
  kFrontendBytesRead,         // request-side bytes read off client sockets
  kFrontendBytesWritten,      // response-side bytes written to client sockets
  kClientRetries,             // client library retry attempts (transient)

  // --- serve/: shard router -------------------------------------------------
  kFrontendProbes,            // health heartbeats echoed by the event loop
  kRouterRoutes,              // requests routed to their home shard
  kRouterFailovers,           // requests rerouted around a dead/evicted shard
  kRouterBrownoutSheds,       // fresh work shed while degraded (brownout)
  kRouterAllShardsDown,       // requests refused with no shard alive
  kRouterRestarts,            // shard processes respawned after a death
  kRouterProbes,              // health probes the router sent
  kShardServing,              // shard observed healthy (probe acked)
  kShardStarting,             // shard observed still booting
  kShardUnresponsive,         // shard evicted: probe deadline expired
  kShardDead,                 // shard reaped by waitpid (any death class)
  kShardRestarting,           // shard waiting out its seeded restart backoff

  kCount_,  // sentinel: number of counters
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount_);

// Stable external name, e.g. "elim-steps"; the JSON key of the counter.
const char* counter_name(Counter c);

// Power-of-two bucketed histograms for quantities whose *distribution*
// matters, not just the total.
enum class Histogram : std::size_t {
  kPivotMoveDistance,   // piv - k: how far the chosen pivot row travelled
  kBigIntLimbs,         // limb count of allocated magnitudes
  kSpanDurationUs,      // span wall time, microseconds
  kQueueDepth,          // service queue depth observed at each admission
  kSparseRowNnz,        // per-row nonzero counts of built CSR matrices
  kCount_,
};

inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount_);
inline constexpr std::size_t kHistogramBuckets = 32;  // bucket b: [2^b, 2^{b+1})

const char* histogram_name(Histogram h);

// A consistent view of every counter, summed over all threads that ever
// incremented one. Plain integers — safe to copy, diff and serialize.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> counts{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumHistograms>
      histograms{};

  std::uint64_t operator[](Counter c) const {
    return counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t histogram_total(Histogram h) const;
};

// The difference between two snapshots: what happened inside a region.
// (Structurally identical to a snapshot; the distinct name documents intent.)
using CounterDelta = CounterSnapshot;

CounterDelta operator-(const CounterSnapshot& after,
                       const CounterSnapshot& before);

// Sums every live thread block. O(threads * counters); relaxed loads only.
CounterSnapshot snapshot();

// RAII scoped collector: captures a snapshot at construction; delta() is the
// activity since then (across ALL threads — scope it around whole parallel
// regions, not inside their loop bodies).
class ScopedCounters {
 public:
  ScopedCounters() : begin_(snapshot()) {}
  CounterDelta delta() const { return snapshot() - begin_; }
  const CounterSnapshot& begin() const { return begin_; }

 private:
  CounterSnapshot begin_;
};

#if PFACT_OBS_ENABLED

namespace detail {

// One cache-line-friendly block of relaxed atomics per thread. Blocks are
// owned by the global registry and never destroyed, so snapshot() can read
// them without synchronizing with thread exit. Fully defined here so a bump
// inlines to a TLS load plus one relaxed fetch_add — no function call on
// the hot path (elimination inner loops bump these).
struct CounterBlock {
  std::atomic<std::uint64_t> counts[kNumCounters] = {};
  std::atomic<std::uint64_t> histograms[kNumHistograms][kHistogramBuckets] =
      {};
};

// Registers (once) and returns the calling thread's block.
CounterBlock* this_thread_block();

inline std::size_t histogram_bucket(std::uint64_t value) {
  std::size_t b = 0;
  while (value > 1 && b + 1 < kHistogramBuckets) {
    value >>= 1;
    ++b;
  }
  return b;
}

}  // namespace detail

inline void bump(Counter c, std::uint64_t n = 1) {
  thread_local detail::CounterBlock* block = detail::this_thread_block();
  block->counts[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

inline void record(Histogram h, std::uint64_t value) {
  thread_local detail::CounterBlock* block = detail::this_thread_block();
  block->histograms[static_cast<std::size_t>(h)]
                   [detail::histogram_bucket(value)]
                       .fetch_add(1, std::memory_order_relaxed);
}

#else  // !PFACT_OBS_ENABLED — keep the API callable, make it a no-op.

inline void bump(Counter, std::uint64_t = 1) {}
inline void record(Histogram, std::uint64_t) {}

#endif  // PFACT_OBS_ENABLED

}  // namespace pfact::obs

// Hot-path instrumentation macros. These — not obs::bump — are what the
// engines use, so an OBS=OFF build compiles the call sites away entirely.
#if PFACT_OBS_ENABLED
#define PFACT_COUNT(c) ::pfact::obs::bump(::pfact::obs::Counter::c)
#define PFACT_COUNT_N(c, n) \
  ::pfact::obs::bump(::pfact::obs::Counter::c, \
                     static_cast<std::uint64_t>(n))
#define PFACT_HISTO(h, v) \
  ::pfact::obs::record(::pfact::obs::Histogram::h, \
                       static_cast<std::uint64_t>(v))
#else
#define PFACT_COUNT(c) ((void)0)
#define PFACT_COUNT_N(c, n) ((void)0)
#define PFACT_HISTO(h, v) ((void)0)
#endif
