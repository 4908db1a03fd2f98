#pragma once
// Deterministic fault injection for reduction runs.
//
// Each FaultPlan names ONE fault from a small taxonomy and a seed that
// deterministically selects the injection site, so every run in the
// robustness suite is replayable bit-for-bit: the same (fault, seed,
// instance) triple always corrupts the same entry in the same way. The
// taxonomy mirrors the ways real numerical stacks get silently corrupted:
//
//   kBitFlip        — a structural entry of the matrix is zeroed (memory
//                     fault / bad transfer on the encoded booleans)
//   kEpsilonNudge   — a nonzero entry is perturbed by 2^-10 (lost update,
//                     mixed-precision contamination)
//   kPivotTie       — a competing nonzero is planted in a pivot column
//                     (forces a tie / extra candidate in the pivot contest)
//   kRoundingFlip   — the SoftFloat substrate's rounding mode is flipped
//                     for the whole run (FPU control-word corruption)
//   kTruncatedInput — the instance loses its last input bit / an encoded
//                     chain input is replaced by the invalid value 0
//   kTornWrite      — a checkpoint blob is corrupted AT SAVE TIME (byte
//                     flip or truncation, seed-selected), the mid-run
//                     analogue of a torn/partial write to stable storage;
//                     exercises the CRC and torn-checkpoint rejection paths
//
// The injector only *creates* faults; detection lives in guarded_run.h and
// in the engine invariants (factor/guard.h). The robustness suite asserts
// that every injected fault is either harmless-by-construction (the decoded
// value is still certified-correct) or detected with a non-kOk diagnostic —
// never returned as a plausible answer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "matrix/matrix.h"
#include "numeric/field.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "obs/taxonomy.h"

namespace pfact::robustness {

enum class FaultClass {
  kNone,
  kBitFlip,
  kEpsilonNudge,
  kPivotTie,
  kRoundingFlip,
  kTruncatedInput,
  kTornWrite,
  kCount_,  // sentinel: number of fault classes (never on the wire)
};

inline constexpr obs::RowTable<obs::NameRow<FaultClass>> kFaultClassRows = {{
    {FaultClass::kNone, "none"},
    {FaultClass::kBitFlip, "bit-flip"},
    {FaultClass::kEpsilonNudge, "epsilon-nudge"},
    {FaultClass::kPivotTie, "pivot-tie"},
    {FaultClass::kRoundingFlip, "rounding-flip"},
    {FaultClass::kTruncatedInput, "truncated-input"},
    {FaultClass::kTornWrite, "torn-write"},
}};
static_assert(obs::is_row_table(kFaultClassRows));

inline const char* fault_class_name(FaultClass f) {
  return obs::name_of(kFaultClassRows, f);
}

struct FaultPlan {
  FaultClass fault = FaultClass::kNone;
  // Selects the injection site among the candidates, deterministically.
  std::uint64_t seed = 0;
  // Mode installed by kRoundingFlip.
  numeric::SoftFloatRounding rounding = numeric::SoftFloatRounding::kTowardZero;

  std::string describe() const {
    return std::string(fault_class_name(fault)) +
           "(seed=" + std::to_string(seed) + ")";
  }
};

// The perturbation added by kEpsilonNudge: 2^-10, exactly representable in
// every float-like field in the repo (double, long double, SoftFloat<P>=11+)
// so the injected fault itself is not blurred by conversion rounding.
inline constexpr double kNudgeMagnitude = 0.0009765625;

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  // What the injector actually did, for the RunReport (empty if nothing).
  const std::string& injection_log() const { return log_; }

  // Matrix-level faults (kBitFlip / kEpsilonNudge / kPivotTie). Generic
  // over the storage backend (matrix/storage.h): the candidate scan
  // enumerates nonzeros in row-major order through get(), so the same
  // (fault, seed, instance) triple corrupts the same logical entry on the
  // dense and sparse backends. Returns true iff an entry was changed.
  template <class Storage>
  bool corrupt_matrix(Storage& a) {
    using T = typename Storage::value_type;
    switch (plan_.fault) {
      case FaultClass::kBitFlip: {
        std::vector<std::pair<std::size_t, std::size_t>> nz = nonzeros(a);
        if (nz.empty()) return false;
        auto [i, j] = nz[plan_.seed % nz.size()];
        log_ = "bit-flip: zeroed (" + std::to_string(i) + "," +
               std::to_string(j) + ") which held " +
               scalar_to_string(a.get(i, j));
        a.set(i, j, T(0));
        PFACT_COUNT(kFaultsInjected);
        return true;
      }
      case FaultClass::kEpsilonNudge: {
        std::vector<std::pair<std::size_t, std::size_t>> nz = nonzeros(a);
        if (nz.empty()) return false;
        auto [i, j] = nz[plan_.seed % nz.size()];
        a.set(i, j, a.get(i, j) + T(kNudgeMagnitude));
        log_ = "epsilon-nudge: added 2^-10 at (" + std::to_string(i) + "," +
               std::to_string(j) + ")";
        PFACT_COUNT(kFaultsInjected);
        return true;
      }
      case FaultClass::kPivotTie: {
        // Force a tie in a LATER pivot contest: pick a column k that has a
        // competitor strictly below the diagonal at row c, and plant the
        // column's strongest magnitude into the pivot row at (k, c). Step
        // k's elimination of a(c, k) then carries the planted value onto
        // a(c, c), so by the time column c holds its pivot contest it has
        // acquired a same-magnitude rival. A naive plant directly below the
        // diagonal would be inert for the triangular GEM/GEMS reductions
        // (their pivot rows are unit vectors at elimination time); routing
        // the tie through the elimination itself perturbs every algorithm.
        const std::size_t n = a.rows();
        if (n < 2) return false;
        std::vector<std::pair<std::size_t, std::size_t>> sites;  // (k, c)
        const std::size_t kmax = std::min(n, a.cols());
        for (std::size_t k = 0; k + 1 < kmax; ++k) {
          for (std::size_t i = k + 1; i < n; ++i) {
            if (!is_zero(a.get(i, k)) && i < a.cols()) sites.emplace_back(k, i);
          }
        }
        if (sites.empty()) return false;
        auto [k, c] = sites[plan_.seed % sites.size()];
        std::size_t best = n;
        for (std::size_t i = k; i < n; ++i) {
          if (is_zero(a.get(i, k))) continue;
          if (best == n || field_abs(a.get(i, k)) > field_abs(a.get(best, k)))
            best = i;
        }
        a.set(k, c, a.get(best, k));
        log_ = "pivot-tie: planted magnitude of (" + std::to_string(best) +
               "," + std::to_string(k) + ") at (" + std::to_string(k) + "," +
               std::to_string(c) + ") to contest column " + std::to_string(c);
        PFACT_COUNT(kFaultsInjected);
        return true;
      }
      // Not matrix-level faults: injected by corrupt_instance /
      // corrupt_encoded_input / corrupt_blob instead. Enumerated so that
      // -Wswitch-enum forces a new FaultClass to choose its site here
      // (kCount_ is the sentinel, not a fault).
      case FaultClass::kNone:
      case FaultClass::kRoundingFlip:
      case FaultClass::kTruncatedInput:
      case FaultClass::kTornWrite:
      case FaultClass::kCount_:
        return false;
    }
    return false;
  }

  // Instance-level fault (kTruncatedInput): drops the last input bit, so
  // the instance arrives with an arity mismatch — the way a truncated
  // request would reach a service boundary.
  circuit::CvpInstance corrupt_instance(const circuit::CvpInstance& inst) {
    if (plan_.fault != FaultClass::kTruncatedInput || inst.inputs.empty()) {
      return inst;
    }
    circuit::CvpInstance out = inst;
    out.inputs.pop_back();
    log_ = "truncated-input: dropped input bit " +
           std::to_string(out.inputs.size());
    PFACT_COUNT(kFaultsInjected);
    return out;
  }

  // Encoded-scalar fault for the chain drivers (GEP inputs live in {1,2},
  // GQR inputs in {-1,+1}): kTruncatedInput degrades the value to 0, the
  // encoding of a missing wire.
  int corrupt_encoded_input(int v) {
    if (plan_.fault != FaultClass::kTruncatedInput) return v;
    log_ = "truncated-input: encoded input " + std::to_string(v) +
           " replaced by 0";
    PFACT_COUNT(kFaultsInjected);
    return 0;
  }

  // Mid-run fault (kTornWrite): corrupts a just-serialized checkpoint blob
  // the way a torn write to stable storage would — even seeds flip one
  // byte, odd seeds truncate the tail. Only the FIRST saved blob of a run
  // is torn (the seed selects where), so the same attempt also exercises
  // fallback to intact earlier/later snapshots. Returns true iff the blob
  // was changed.
  bool corrupt_blob(std::string& blob) {
    if (plan_.fault != FaultClass::kTornWrite || torn_done_ || blob.empty()) {
      return false;
    }
    torn_done_ = true;
    if (plan_.seed % 2 == 0) {
      const std::size_t at = (plan_.seed / 2) % blob.size();
      blob[at] = static_cast<char>(blob[at] ^ 0x20);
      append_log("torn-write: flipped bit 5 of byte " + std::to_string(at) +
                 " of a " + std::to_string(blob.size()) + "-byte checkpoint");
    } else {
      const std::size_t keep = (plan_.seed / 2) % blob.size();
      append_log("torn-write: truncated a " + std::to_string(blob.size()) +
                 "-byte checkpoint to " + std::to_string(keep) + " bytes");
      blob.resize(keep);
    }
    PFACT_COUNT(kFaultsInjected);
    return true;
  }

 private:
  template <class Storage>
  static std::vector<std::pair<std::size_t, std::size_t>> nonzeros(
      const Storage& a) {
    std::vector<std::pair<std::size_t, std::size_t>> nz;
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j)
        if (!is_zero(a.get(i, j))) nz.emplace_back(i, j);
    return nz;
  }

  void append_log(const std::string& entry) {
    if (!log_.empty()) log_ += "; ";
    log_ += entry;
  }

  FaultPlan plan_;
  std::string log_;
  bool torn_done_ = false;
};

// The full sweepable taxonomy: every row but kNone (row 0). kTornWrite is
// only observable on runs that actually save checkpoints; on an
// uncheckpointed run it is a no-op (harmless by construction).
inline const std::vector<FaultClass>& all_fault_classes() {
  return obs::sweep_of<kFaultClassRows, 1>();
}

}  // namespace pfact::robustness
