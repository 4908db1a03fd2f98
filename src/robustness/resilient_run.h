#pragma once
// The resilient execution driver: guard -> checkpoint -> classify ->
// retry/escalate, composed into one supervised loop.
//
// One call runs a ReductionTask to a CERTIFIED answer or a classified
// terminal failure, never anything in between (the "zero plausible-but-
// wrong answers" contract — inherited from the guarded drivers' cross-check
// and preserved by construction here, because every rung's answer passes
// through the same certificate).
//
// The loop, per rung of the substrate ladder (escalation.h):
//
//   attempt -> classify (retry.h) -> | success       -> return certified
//                                    | fatal         -> return terminal
//                                    | transient     -> backoff, resume from
//                                    |                  last good checkpoint,
//                                    |                  retry this rung
//                                    | deterministic -> climb one rung
//
// Exhausting a rung's retry budget on transients also climbs (the rung is
// treated as unviable here-and-now); exhausting the ladder returns the last
// report as a terminal failure. Checkpoints are field-tagged, so the store
// is cleared on every climb.
//
// Determinism: with a fixed ResilientOptions (policy seed, fault schedule)
// the whole attempt log — diagnostics, backoff delays, escalations — is
// bit-reproducible. Backoff delays are RECORDED on every retry but only
// SLEPT when the caller installs a sleeper, so tests and soak campaigns
// replay at full speed.
//
// The loop itself is run_ladder, and it does not care WHERE an attempt
// runs: resilient_run hands it the in-process guarded call, and
// serve::supervised_run hands it a sandboxed worker on a WarmPool. Both
// therefore share one decision table, one backoff schedule and one
// checkpoint rule.

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "robustness/checkpoint.h"
#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/guarded_run.h"
#include "robustness/retry.h"

namespace pfact::robustness {

// One guarded attempt, as the supervisor saw it.
struct AttemptRecord {
  Substrate substrate = Substrate::kDouble;
  std::size_t attempt = 0;  // 1-based index within the rung
  Diagnostic diagnostic = Diagnostic::kInternalError;
  FailureKind kind = FailureKind::kFatal;
  // Backoff recorded before THIS attempt (zero for a rung's first attempt).
  std::chrono::milliseconds backoff{0};
  bool resumed = false;     // started from a validated checkpoint
  std::string detail;

  std::string to_string() const;
};

struct ResilientOptions {
  RetryPolicy retry;
  GuardLimits limits;
  // Ladder override; empty means default_ladder(task.algorithm).
  std::vector<Substrate> ladder;
  // Checkpoint cadence (guard steps between snapshots); 0 disables
  // checkpointing entirely: no attempt resumes, saves, or touches `store`,
  // even one the caller filled.
  std::size_t checkpoint_every = 0;
  // External checkpoint store (crash/resume harnesses pre-populate one);
  // nullptr uses a private store. The first rung resumes from what the
  // caller left here; every climb clears it.
  CheckpointStore* store = nullptr;
  // Chaos schedule: the fault plan injected into global attempt k (1-based,
  // across rungs). Null means no injected faults.
  std::function<FaultPlan(std::size_t attempt)> fault_for_attempt;
  // Sleeps backoff delays when installed; null records them without
  // sleeping (the deterministic default).
  std::function<void(std::chrono::milliseconds)> sleeper;
};

struct ResilientReport {
  // True iff the run ended kOk — i.e. decoded AND certified by the direct-
  // evaluation cross-check on the rung named below.
  bool certified = false;
  bool value = false;
  Substrate certified_by = Substrate::kDouble;

  FailureKind outcome = FailureKind::kFatal;  // kSuccess when certified
  RunReport final_report;                     // the deciding attempt's report
  std::vector<AttemptRecord> attempts;        // the full supervised log
  std::size_t escalations = 0;                // rungs climbed

  std::string to_string() const;
};

ResilientReport resilient_run(const ReductionTask& task,
                              const ResilientOptions& options = {});

// One attempt as the ladder loop hands it out.
struct Attempt {
  Substrate substrate = Substrate::kDouble;
  std::size_t number = 0;  // global, 1-based across rungs
  FaultPlan fault;         // options.fault_for_attempt(number)
  // Resume from its latest snapshot and file new ones here; nullptr when
  // checkpoint_every == 0.
  CheckpointStore* store = nullptr;
};

// Runs one attempt to its RunReport. The loop classifies the diagnostic.
using AttemptRunner = std::function<RunReport(const Attempt&)>;

// The rung/retry/escalation loop, with `run_attempt` deciding how one
// attempt executes. Fills `out`, which may be a derived report whose extra
// fields `run_attempt` tallies.
void run_ladder(const ReductionTask& task, const ResilientOptions& options,
                const AttemptRunner& run_attempt, ResilientReport& out);

}  // namespace pfact::robustness
