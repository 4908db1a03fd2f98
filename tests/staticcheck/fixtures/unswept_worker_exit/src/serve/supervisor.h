#pragma once
// Part of the unswept_worker_exit overlay: kMystery IS diagnosed here, so
// the only PL009 finding the fixture seeds is the missing sweep entry in
// warm_pool.h.

namespace pfact::serve {

inline robustness::Diagnostic diagnose_worker_exit(WorkerExit e) {
  switch (e) {
    case WorkerExit::kCompleted: return robustness::Diagnostic::kOk;
    case WorkerExit::kSignalled:
      return robustness::Diagnostic::kWorkerFailure;
    case WorkerExit::kWatchdog:
      return robustness::Diagnostic::kDeadlineExceeded;
    case WorkerExit::kMystery:
      return robustness::Diagnostic::kWorkerFailure;
  }
  return robustness::Diagnostic::kInternalError;
}

}  // namespace pfact::serve
