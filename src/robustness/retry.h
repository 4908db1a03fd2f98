#pragma once
// Failure classification and retry policy for the resilient engine.
//
// The classifier, classify_diagnostic (diagnostics.h), maps every RunReport
// diagnostic into one of three failure kinds, which is the whole decision
// table of resilient_run.h:
//
//   kTransient     — a property of the MOMENT, not of the computation
//                    (a flipped rounding mode, preemption, allocation
//                    pressure, a dying worker, a torn checkpoint). The same
//                    substrate may well succeed on a clean re-run, so retry
//                    with backoff, resuming from the last good checkpoint.
//   kDeterministic — a property of the COMPUTATION on this substrate: the
//                    arithmetic decoded to garbage, broke an invariant or
//                    went non-finite. Re-running in the same precision
//                    replays the same bits, so escalate one rung up the
//                    substrate ladder (escalation.h) instead.
//   kFatal         — a property of the INPUT (or a library bug): no amount
//                    of retrying or precision will fix it. Fail immediately.
//
// Each diagnostic's kind, with its reason, is a row of kDiagnosticRows.
//
// Backoff is exponential with deterministic jitter: the delay for attempt k
// is base * 2^k, scaled by a jitter factor in [1/2, 1] drawn from
// splitmix64(seed, attempt). Same policy seed => bit-identical delay
// sequence, so soak campaigns replay exactly.

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "robustness/diagnostics.h"

namespace pfact::robustness {

const char* failure_kind_name(FailureKind k);

// splitmix64 of (seed ^ mixed attempt) — the standard 64-bit finalizer, used
// here as a tiny deterministic PRNG for jitter. Exposed for tests.
std::uint64_t mix64(std::uint64_t seed, std::uint64_t attempt);

struct RetryPolicy {
  // Attempts allowed per substrate rung, including the first one. 0 behaves
  // as 1 (every rung gets at least one attempt).
  std::size_t max_attempts = 3;
  // Base backoff delay before attempt 1 (the retry after the first
  // failure); doubles each further attempt. Zero disables sleeping while
  // keeping the attempt accounting.
  std::chrono::milliseconds base_delay{10};
  // Cap on a single computed delay.
  std::chrono::milliseconds max_delay{1000};
  // Jitter seed: delays are scaled by a factor in [0.5, 1.0] drawn
  // deterministically from (jitter_seed, attempt).
  std::uint64_t jitter_seed = 0;

  // The delay to sleep before retry number `attempt` (1-based: attempt 1
  // follows the first failure). Deterministic in (policy, attempt).
  std::chrono::milliseconds backoff(std::size_t attempt) const;
};

}  // namespace pfact::robustness
