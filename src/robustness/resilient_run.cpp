#include "robustness/resilient_run.h"

#include "obs/counters.h"

namespace pfact::robustness {

std::string AttemptRecord::to_string() const {
  std::string s = std::string(substrate_name(substrate)) + "#" +
                  std::to_string(attempt) + " " +
                  diagnostic_name(diagnostic) + " (" +
                  failure_kind_name(kind) + ")";
  if (backoff.count() > 0) {
    s += " after " + std::to_string(backoff.count()) + "ms backoff";
  }
  if (resumed) s += " [resumed]";
  if (!detail.empty()) s += " — " + detail;
  return s;
}

std::string ResilientReport::to_string() const {
  std::string s = certified
                      ? std::string("certified value=") +
                            (value ? "true" : "false") + " by " +
                            substrate_name(certified_by)
                      : std::string("terminal ") + failure_kind_name(outcome) +
                            ": " + diagnostic_name(final_report.diagnostic);
  s += " after " + std::to_string(attempts.size()) + " attempt(s), " +
       std::to_string(escalations) + " escalation(s)";
  for (const AttemptRecord& a : attempts) s += "\n  " + a.to_string();
  return s;
}

void run_ladder(const ReductionTask& task, const ResilientOptions& options,
                const AttemptRunner& run_attempt, ResilientReport& out) {
  CheckpointStore local_store;
  CheckpointStore* store = nullptr;
  if (options.checkpoint_every != 0) {
    store = options.store != nullptr ? options.store : &local_store;
  }
  const std::vector<Substrate> ladder = options.ladder.empty()
                                            ? default_ladder(task.algorithm)
                                            : options.ladder;
  const std::size_t attempts_per_rung =
      options.retry.max_attempts == 0 ? 1 : options.retry.max_attempts;

  std::size_t global_attempt = 0;
  bool first_rung = true;
  for (std::size_t rung = 0; rung < ladder.size(); ++rung) {
    const Substrate sub = ladder[rung];
    if (!substrate_supported(task.algorithm, sub)) continue;
    // Checkpoints are field-tagged: state saved on another rung is useless
    // here. The FIRST rung keeps whatever the caller pre-populated (the
    // crash/resume path hands work back through options.store).
    if (!first_rung && store != nullptr) store->clear();
    first_rung = false;

    for (std::size_t attempt = 1; attempt <= attempts_per_rung; ++attempt) {
      ++global_attempt;
      PFACT_COUNT(kRetryAttempts);

      AttemptRecord rec;
      rec.substrate = sub;
      rec.attempt = attempt;
      if (attempt > 1) {
        rec.backoff = options.retry.backoff(attempt - 1);
        if (options.sleeper && rec.backoff.count() > 0) {
          options.sleeper(rec.backoff);
        }
      }

      Attempt a;
      a.substrate = sub;
      a.number = global_attempt;
      if (options.fault_for_attempt) {
        a.fault = options.fault_for_attempt(global_attempt);
      }
      a.store = store;
      const bool had_checkpoint = store != nullptr && !store->empty();

      RunReport rep = run_attempt(a);
      rec.diagnostic = rep.diagnostic;
      rec.kind = classify_diagnostic(rep.diagnostic);
      rec.resumed = had_checkpoint && rep.diagnostic !=
                        Diagnostic::kCheckpointCorrupt;
      rec.detail = rep.detail;
      out.attempts.push_back(rec);
      out.final_report = std::move(rep);

      if (rec.kind == FailureKind::kSuccess) {
        out.certified = true;
        out.value = out.final_report.value;
        out.certified_by = sub;
        out.outcome = FailureKind::kSuccess;
        return;
      }
      if (rec.kind == FailureKind::kFatal) {
        out.outcome = FailureKind::kFatal;
        return;
      }
      if (rec.kind == FailureKind::kDeterministic) {
        break;  // this substrate will reproduce these bits; climb
      }
      // Transient: a torn/corrupt latest checkpoint must not poison the
      // retry — drop it so the next attempt resumes from the previous
      // intact snapshot (or from scratch).
      if (out.final_report.diagnostic == Diagnostic::kCheckpointCorrupt &&
          store != nullptr) {
        store->drop_latest();
      }
    }

    bool has_next = false;
    for (std::size_t r = rung + 1; r < ladder.size(); ++r) {
      if (substrate_supported(task.algorithm, ladder[r])) has_next = true;
    }
    if (has_next) {
      PFACT_COUNT(kEscalations);
      ++out.escalations;
    }
  }

  out.outcome = classify_diagnostic(out.final_report.diagnostic);
}

ResilientReport resilient_run(const ReductionTask& task,
                              const ResilientOptions& options) {
  ResilientReport out;
  run_ladder(
      task, options,
      [&](const Attempt& a) {
        CheckpointConfig ckpt;
        ckpt.every = options.checkpoint_every;
        ckpt.store = a.store;
        ckpt.resume = a.store != nullptr;
        return run_on_substrate(task, a.substrate, options.limits, a.fault,
                                ckpt);
      },
      out);
  return out;
}

}  // namespace pfact::robustness
