#pragma once
// Structured diagnostics for guarded reduction runs.
//
// The paper's reductions (Thm 3.1/3.4/4.1) only work if the factorization
// produces bit-exact encoded booleans; any perturbation of A_C, a rounding
// slip, or a pivot anomaly silently corrupts the decoded circuit value.
// RunReport replaces the seed's bare `ok=false` with a classified verdict:
// every failure mode the fault-injection suite can produce maps to a
// distinct Diagnostic, together with the offending position and a pivot
// trace excerpt, so a failed run is *explainable* — never just "not ok".
//
// Contract (see DESIGN.md): detection, not correction. A guarded run either
// returns kOk with a value certified against the direct circuit evaluation,
// or a non-kOk diagnostic. It never returns a plausible-but-wrong value.

#include <array>
#include <cstddef>
#include <string>

#include "factor/pivot_trace.h"
#include "obs/counters.h"
#include "obs/taxonomy.h"
#include "robustness/fields.h"

namespace pfact::robustness {

enum class Diagnostic {
  kOk,                    // decode clean AND certified by cross-check
  kBadInput,              // malformed instance (arity, encoding, size cap)
  kDecodeNotBoolean,      // output entry is not an exact encoded 0/1
  kDecodeAmbiguous,       // zero or multiple live rows at the decode column
  kDecodeOutOfTolerance,  // float decode outside the accepted band of +/-1
  kCrossCheckMismatch,    // decode clean but contradicts direct evaluation
  kPivotAnomaly,          // unexpected skip/fail event in the pivot trace
  kRoundingAnomaly,       // arithmetic substrate is not round-to-nearest-even
  kNumericOverflow,       // SoftFloat saturation / BigInt growth-limit hit
  kNumericNonFinite,      // NaN/inf or degenerate (zero-norm) rotation
  kInvariantViolation,    // an engine invariant tripped (non-unit pivot, ...)
  kStepBudgetExceeded,    // the run consumed more steps than its budget
  kDeadlineExceeded,      // the run overran its wall-clock deadline
  kCancelled,             // cooperative cancellation fired mid-run
  kResourceExhausted,     // allocation failure (std::bad_alloc) mid-run
  kCheckpointCorrupt,     // a resume checkpoint failed CRC/version/shape
  kWorkerFailure,         // a pool worker failed with an unclassified error
  kInternalError,         // anything else — a bug in this library
  kOverloaded,            // admission control shed the job (queue saturated)
  kConnReset,             // a network peer vanished mid-conversation
  kCount_,  // sentinel: number of diagnostics (never on the wire)
};

// What the retry loop (resilient_run.h) does about a diagnostic.
enum class FailureKind {
  kSuccess,        // diagnostic == kOk: nothing to handle
  kTransient,      // the MOMENT's: retry on the same substrate, with backoff
  kDeterministic,  // the COMPUTATION's: same precision, same bits; escalate
  kFatal,          // the INPUT's (or a library bug): fail immediately
};

struct DiagnosticRow {
  Diagnostic id;
  const char* name;
  FailureKind kind;
};

// The retry loop's decision table: each Diagnostic's name and the one
// FailureKind it classifies to.
inline constexpr auto kDiagnosticRows = [] {
  using enum Diagnostic;
  using enum FailureKind;
  return obs::RowTable<DiagnosticRow>{{
      {kOk, "ok", kSuccess},
      {kBadInput, "bad-input", kFatal},
      {kDecodeNotBoolean, "decode-not-boolean", kDeterministic},
      {kDecodeAmbiguous, "decode-ambiguous", kDeterministic},
      {kDecodeOutOfTolerance, "decode-out-of-tolerance", kDeterministic},
      {kCrossCheckMismatch, "cross-check-mismatch", kDeterministic},
      {kPivotAnomaly, "pivot-anomaly", kDeterministic},
      // The environment, not the computation: the FPU state flipped.
      {kRoundingAnomaly, "rounding-anomaly", kTransient},
      {kNumericOverflow, "numeric-overflow", kDeterministic},
      {kNumericNonFinite, "numeric-non-finite", kDeterministic},
      {kInvariantViolation, "invariant-violation", kDeterministic},
      // Preempted (by its own budget, the clock, cancellation), not refuted.
      {kStepBudgetExceeded, "step-budget-exceeded", kTransient},
      {kDeadlineExceeded, "deadline-exceeded", kTransient},
      {kCancelled, "cancelled", kTransient},
      {kResourceExhausted, "resource-exhausted", kTransient},  // bad_alloc
      // A torn write: the retry resumes from an intact checkpoint.
      {kCheckpointCorrupt, "checkpoint-corrupt", kTransient},
      {kWorkerFailure, "worker-failure", kTransient},  // a worker died
      {kInternalError, "internal-error", kFatal},
      {kOverloaded, "overloaded", kTransient},  // shed, never refuted
      // The peer vanished, maybe before it saw the request: resubmit.
      {kConnReset, "connection-reset", kTransient},
  }};
}();
static_assert(obs::is_row_table(kDiagnosticRows));

inline const char* diagnostic_name(Diagnostic d) {
  return obs::name_of(kDiagnosticRows, d);
}
// An out-of-range ordinal classifies as fatal.
inline FailureKind classify_diagnostic(Diagnostic d) {
  return obs::lookup(kDiagnosticRows, d, &DiagnosticRow::kind,
                     FailureKind::kFatal);
}

// The rows of the serve-side taxonomies: each member's name and the
// Diagnostic a caller sees, plus in CountedRow the obs counter it bumps.
template <class Enum>
struct DiagnosedRow {
  Enum id;
  const char* name;
  Diagnostic diagnostic;
};

template <class Enum>
struct CountedRow {
  Enum id;
  const char* name;
  Diagnostic diagnostic;
  obs::Counter counter;
};

// An out-of-range ordinal diagnoses as kInternalError.
template <class Row, std::size_t N>
constexpr Diagnostic diagnosis_of(const std::array<Row, N>& rows,
                                  decltype(Row::id) id) {
  return obs::lookup(rows, id, &Row::diagnostic, Diagnostic::kInternalError);
}

template <class Row, std::size_t N>
constexpr obs::Counter counter_of(const std::array<Row, N>& rows,
                                  decltype(Row::id) id, obs::Counter fallback) {
  return obs::lookup(rows, id, &Row::counter, fallback);
}

inline constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

struct RunReport {
  Diagnostic diagnostic = Diagnostic::kInternalError;

  // Valid only when diagnostic == kOk.
  bool value = false;

  std::string algorithm;         // "GEM" / "GEMS" / "GEP" / "GQR"
  std::size_t order = 0;         // order of the matrix actually run
  double decoded_entry = 0.0;    // raw entry/encoding read at decode time
  std::size_t steps_used = 0;    // guard ticks consumed

  // Where the failure was observed (matrix position or step index);
  // kNoPosition when not applicable.
  std::size_t offending_row = kNoPosition;
  std::size_t offending_col = kNoPosition;

  std::string detail;         // human-readable cause
  std::string pivot_excerpt;  // tail of the pivot trace, when one exists
  std::string injection;      // what the fault injector did (replay aid)

  // The complete pivot trace of the run (empty for GQR, which pivots by
  // rotation). For a resumed run this is the checkpoint's stored prefix
  // concatenated with the freshly executed suffix, so crash/resume
  // equivalence can be asserted event-for-event against an uninterrupted
  // run, not just on the excerpt string.
  factor::PivotTrace trace;

  // Op-counter deltas covering exactly this run (all-zero when the
  // observability layer is compiled out with PFACT_OBS=OFF).
  obs::CounterDelta metrics;

  bool ok() const { return diagnostic == Diagnostic::kOk; }

  std::string to_string() const {
    std::string s = "[" + algorithm + "] " + diagnostic_name(diagnostic);
    if (ok()) s += value ? " value=true" : " value=false";
    s += " order=" + std::to_string(order);
    s += " steps=" + std::to_string(steps_used);
    if (offending_row != kNoPosition || offending_col != kNoPosition) {
      auto fmt = [](std::size_t v) {
        return v == kNoPosition ? std::string("-") : std::to_string(v);
      };
      s += " at=(" + fmt(offending_row) + "," + fmt(offending_col) + ")";
    }
    if (!detail.empty()) s += " — " + detail;
    if (!injection.empty()) s += " [injected: " + injection + "]";
    if (!pivot_excerpt.empty()) s += "\n  trace: " + pivot_excerpt;
    return s;
  }
};

// The fields of a report that cross a process boundary (serve/wire.h): all
// but the metrics, which are per-process. The FULL pivot trace travels, so
// cross-process resume equivalence is assertable event for event.
template <class Io, detail::Of<RunReport> R>
void fields(Io& io, R& r) {
  io.u32(r.diagnostic);
  io.u8(r.value);
  io.str(r.algorithm);
  io.u64(r.order);
  io.f64(r.decoded_entry);
  io.u64(r.steps_used);
  io.u64(r.offending_row);
  io.u64(r.offending_col);
  io.str(r.detail);
  io.str(r.pivot_excerpt);
  io.str(r.injection);
  io.trace(r.trace);
}

}  // namespace pfact::robustness
