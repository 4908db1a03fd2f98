#include "serve/supervisor.h"

#include <algorithm>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace pfact::serve {

using robustness::Attempt;
using robustness::Diagnostic;
using robustness::ReductionTask;
using robustness::RunReport;

std::string SupervisedReport::to_string() const {
  std::string s = ResilientReport::to_string();
  const std::string workers =
      "; workers: " + std::to_string(workers_spawned) + " spawned, " +
      std::to_string(workers_crashed) + " crashed, " +
      std::to_string(watchdog_kills) + " watchdog-killed, " +
      std::to_string(resume_handoffs) + " resume handoff(s), " +
      std::to_string(checkpoints_received) + " checkpoint(s) received";
  s.insert(std::min(s.find('\n'), s.size()), workers);
  return s;
}

SupervisedReport supervised_run(WarmPool& pool, const ReductionTask& task,
                                const SupervisorOptions& options) {
  PFACT_SPAN("serve.supervised-run");
  SupervisedReport out;
  robustness::run_ladder(
      task, options,
      [&](const Attempt& a) {
        TaskRequest req;
        req.task = task;
        req.substrate = a.substrate;
        req.limits = options.limits;
        req.checkpoint_every = options.checkpoint_every;
        if (options.kill_for_attempt) {
          req.kill = options.kill_for_attempt(a.number);
        }
        req.fault = a.fault;
        req.rlimits = options.rlimits;

        // Cross-process resume handoff: seed the fresh worker with the
        // newest verified blob a predecessor streamed before dying. The
        // worker re-validates it in full (field tag, shape, CRC) before
        // resuming — the handoff can delay a run, never corrupt one. A
        // worker that rejects it reports kCheckpointCorrupt, and the loop
        // drops the blob before the next attempt.
        if (a.store != nullptr && !a.store->empty()) {
          req.resume_step = a.store->latest_step();
          req.resume_blob = *a.store->latest();
          PFACT_COUNT(kWorkerResumeHandoffs);
          ++out.resume_handoffs;
        }

        WorkerRun run = pool.run_task(req, a.store, options.watchdog);
        ++out.workers_spawned;
        out.checkpoints_received += run.checkpoints_received;
        out.last_worker_exit = run.exit;
        if (run.exit != WorkerExit::kCompleted) ++out.workers_crashed;
        if (run.exit == WorkerExit::kWatchdog) ++out.watchdog_kills;

        RunReport rep;
        if (run.exit == WorkerExit::kCompleted) {
          rep = std::move(run.result);
          // Defense in depth: the worker's certificate crossed a process
          // boundary, so re-certify against the direct evaluation here. A
          // worker whose memory was corrupted enough to ship kOk with the
          // wrong boolean becomes a classified mismatch, not an answer.
          if (rep.diagnostic == Diagnostic::kOk &&
              rep.value != task.expected()) {
            rep.diagnostic = Diagnostic::kCrossCheckMismatch;
            rep.detail =
                "supervisor re-check: worker-certified value contradicts "
                "direct evaluation";
          }
        } else {
          rep.diagnostic = diagnose_worker_exit(run.exit);
          rep.algorithm = robustness::algorithm_name(task.algorithm);
          rep.detail = run.detail;
        }
        return rep;
      },
      out);
  return out;
}

}  // namespace pfact::serve
