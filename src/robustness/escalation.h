#pragma once
// The substrate ladder: WHERE a reduction re-runs after a deterministic
// numeric failure.
//
// The ladder orders the repo's arithmetic substrates by how much of the
// numeric failure surface they close off:
//
//   kDouble      — native machine floats (double; long double for GQR,
//                  whose gadget constants are mastered in long double).
//                  Fastest, but NaNs propagate silently and the FPU
//                  environment is taken on faith.
//   kSoftFloat53 — software IEEE double (numeric::Float53). Same nominal
//                  precision, but every operation traps non-finite results
//                  (std::domain_error), saturation throws, and the rounding
//                  mode is probeable — so an anomaly that double could only
//                  *decode* its way into detecting is caught at the very
//                  operation that produced it.
//   kRational    — exact arithmetic (numeric::Rational over BigInt). No
//                  rounding at all: if the decode is wrong here, the input
//                  (or this library) is wrong, not the arithmetic. The
//                  terminal rung.
//
// GQR is the exception: its rotations need field_sqrt, which no exact
// rational field has (sqrt(2) is irrational — the paper's Section 4 is
// explicit that GQR lives in the floating point model). Its ladder tops out
// at kSoftFloat53, mirroring Theorem 4.1's restriction.
//
// A checkpoint blob is field-tagged (checkpoint.h), so escalation
// invalidates saved state by construction: the driver clears the store
// when it climbs, and a stale blob from the old rung would be rejected as
// malformed anyway.

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "obs/taxonomy.h"
#include "robustness/diagnostics.h"
#include "robustness/fault_injector.h"
#include "robustness/guarded_run.h"

namespace pfact::robustness {

enum class Substrate {
  kDouble,
  kSoftFloat53,
  kRational,
  kCount_,  // sentinel: number of substrates
};

inline constexpr obs::RowTable<obs::NameRow<Substrate>> kSubstrateRows = {{
    {Substrate::kDouble, "double"},
    {Substrate::kSoftFloat53, "softfloat53"},
    {Substrate::kRational, "rational"},
}};
static_assert(obs::is_row_table(kSubstrateRows));

inline const char* substrate_name(Substrate s) {
  return obs::name_of(kSubstrateRows, s);
}

enum class Algorithm {
  kGem,             // Thm 3.1, minimal pivoting with swaps
  kGems,            // Thm 3.1, minimal pivoting with shifts
  kGemNonsingular,  // Cor 3.2, bordered nonsingular GEM
  kGep,             // Thm 3.4, partial pivoting NAND/PASS chain
  kGqr,             // Thm 4.1, Givens rotation NAND/PASS chain
  kCount_,          // sentinel: number of algorithms
};

// The paper's names, also the cache-key and checkpoint spelling of each
// algorithm: not kebab-case, so only non-empty is required.
inline constexpr obs::RowTable<obs::NameRow<Algorithm>> kAlgorithmRows = {{
    {Algorithm::kGem, "GEM"},
    {Algorithm::kGems, "GEMS"},
    {Algorithm::kGemNonsingular, "GEM/nonsingular"},
    {Algorithm::kGep, "GEP"},
    {Algorithm::kGqr, "GQR"},
}};
static_assert(obs::is_row_table(kAlgorithmRows, [](const char* name) {
  return name != nullptr && *name != '\0';
}));

inline const char* algorithm_name(Algorithm a) {
  return obs::name_of(kAlgorithmRows, a);
}

// WHICH storage backend holds the reduction matrix while it runs
// (matrix/storage.h). The two backends are bit-equal by contract: same
// decoded boolean, event-for-event identical pivot trace, same diagnostics
// — the sparse backend just stores only the nonzeros, so block-banded A_C
// reductions 10-100x beyond the dense gate-count ceiling fit in the same
// memory. Orthogonal to the substrate ladder: every (Substrate, Backend)
// pair that the algorithm supports is runnable.
enum class Backend {
  kDense,
  kSparse,
  kCount_,  // sentinel: number of backends
};

inline constexpr obs::RowTable<obs::NameRow<Backend>> kBackendRows = {{
    {Backend::kDense, "dense"},
    {Backend::kSparse, "sparse"},
}};
static_assert(obs::is_row_table(kBackendRows));

inline const char* backend_name(Backend b) {
  return obs::name_of(kBackendRows, b);
}

// One unit of resilient work: everything needed to (re-)launch the same
// reduction on any rung of the ladder.
struct ReductionTask {
  Algorithm algorithm = Algorithm::kGem;
  // GEM / GEMS / GEM-nonsingular input (defaults to the empty circuit,
  // which those drivers refuse as kBadInput — chain tasks never read it).
  circuit::CvpInstance instance{circuit::Circuit(0, {}), {}};
  // GEP chain inputs (encoded in {1,2}) or GQR chain inputs ({-1,+1}).
  int u = 1;
  int w = 1;
  std::size_t depth = 0;  // chain length for GEP/GQR
  // Storage backend the run executes on (answers are backend-invariant).
  Backend backend = Backend::kDense;

  // Ground truth, for the soak harness's zero-wrong-answers assertion.
  bool expected() const;

  std::string describe() const;
};

// GQR has no exact rung (no rational square root); everything else supports
// the full ladder.
bool substrate_supported(Algorithm a, Substrate s);

// The rungs the resilient driver climbs for this algorithm, in order.
std::vector<Substrate> default_ladder(Algorithm a);

// Runs the task's guarded driver over the given substrate. The dispatch is
// total over (Algorithm, Substrate) pairs with substrate_supported == true;
// an unsupported pair reports kBadInput without running anything.
RunReport run_on_substrate(const ReductionTask& task, Substrate s,
                           const GuardLimits& limits = {},
                           const FaultPlan& fault = {},
                           const CheckpointConfig& ckpt = {});

}  // namespace pfact::robustness
