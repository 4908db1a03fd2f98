#include "robustness/guarded_run.h"

#include <cmath>
#include <stdexcept>

#include "core/gep_gadgets.h"
#include "parallel/thread_pool.h"

namespace pfact::robustness {
namespace detail {

void apply_exception(RunReport& rep, std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const factor::GuardAbort& g) {
    switch (g.kind()) {
      case factor::GuardAbort::Kind::kStepBudget:
        rep.diagnostic = Diagnostic::kStepBudgetExceeded;
        break;
      case factor::GuardAbort::Kind::kDeadline:
        rep.diagnostic = Diagnostic::kDeadlineExceeded;
        break;
      case factor::GuardAbort::Kind::kInvariant:
        rep.diagnostic = Diagnostic::kInvariantViolation;
        break;
    }
    rep.offending_col = g.position();
    rep.detail = g.what();
  } catch (const par::OperationCancelled& c) {
    rep.diagnostic = Diagnostic::kCancelled;
    rep.detail = c.what();
  } catch (const std::bad_alloc&) {
    // Allocation pressure is a property of the moment, not of the input:
    // transient, retry-the-same-substrate territory.
    rep.diagnostic = Diagnostic::kResourceExhausted;
    rep.detail = "allocation failed mid-run (std::bad_alloc)";
  } catch (const std::overflow_error& e) {
    rep.diagnostic = Diagnostic::kNumericOverflow;
    rep.detail = e.what();
  } catch (const std::domain_error& e) {
    // SoftFloat NaN construction / division by a (flushed-to-)zero.
    rep.diagnostic = Diagnostic::kNumericNonFinite;
    rep.detail = e.what();
  } catch (const std::invalid_argument& e) {
    rep.diagnostic = Diagnostic::kBadInput;
    rep.detail = e.what();
  } catch (const std::exception& e) {
    rep.diagnostic = Diagnostic::kWorkerFailure;
    rep.detail = e.what();
  } catch (...) {
    rep.diagnostic = Diagnostic::kInternalError;
    rep.detail = "non-standard exception";
  }
}

std::string trace_excerpt(const factor::PivotTrace& trace,
                          std::size_t max_events) {
  const auto& ev = trace.events();
  std::string out =
      std::to_string(ev.size()) + " events";
  if (ev.empty()) return out;
  std::size_t first = ev.size() > max_events ? ev.size() - max_events : 0;
  out += first > 0 ? "; tail:" : ":";
  for (std::size_t i = first; i < ev.size(); ++i) {
    const auto& e = ev[i];
    const char* act = "?";
    switch (e.action) {
      case factor::PivotAction::kKeep: act = "keep"; break;
      case factor::PivotAction::kSwap: act = "swap"; break;
      case factor::PivotAction::kShift: act = "shift"; break;
      case factor::PivotAction::kSkip: act = "skip"; break;
      case factor::PivotAction::kFail: act = "fail"; break;
      case factor::PivotAction::kCount_: break;
    }
    out += " c" + std::to_string(e.column) + ":" + act;
    if (e.action == factor::PivotAction::kSwap ||
        e.action == factor::PivotAction::kShift) {
      out += "@" + std::to_string(e.pivot_pos);
    }
  }
  return out;
}

}  // namespace detail

RunReport guarded_run_gep_chain(int u, int w, std::size_t depth,
                                const GuardLimits& limits,
                                const FaultPlan& fault,
                                const CheckpointConfig& ckpt) {
  return guarded_run_gep_chain_t<double>(u, w, depth, limits, fault, ckpt);
}

}  // namespace pfact::robustness
