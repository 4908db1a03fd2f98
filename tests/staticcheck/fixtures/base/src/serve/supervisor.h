#pragma once
// staticcheck fixture: minimal worker-exit -> Diagnostic mapping in the
// shape pfact_lint parses for PL009 (defined in warm_pool.h, diagnosed
// here — the cross-file pair the rule guards).

namespace pfact::serve {

inline robustness::Diagnostic diagnose_worker_exit(WorkerExit e) {
  switch (e) {
    case WorkerExit::kCompleted: return robustness::Diagnostic::kOk;
    case WorkerExit::kSignalled:
      return robustness::Diagnostic::kWorkerFailure;
    case WorkerExit::kWatchdog:
      return robustness::Diagnostic::kDeadlineExceeded;
  }
  return robustness::Diagnostic::kInternalError;
}

}  // namespace pfact::serve
