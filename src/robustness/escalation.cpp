#include "robustness/escalation.h"

#include "numeric/rational.h"
#include "numeric/softfloat.h"

namespace pfact::robustness {

bool ReductionTask::expected() const {
  switch (algorithm) {
    case Algorithm::kGem:
    case Algorithm::kGems:
    case Algorithm::kGemNonsingular:
      return instance.expected();
    case Algorithm::kGep:
      return !(u == 2 && w == 2);  // NAND on True=2
    case Algorithm::kGqr:
      return !(u == 1 && w == 1);  // NAND on True=+1
    case Algorithm::kCount_:
      break;
  }
  return false;
}

std::string ReductionTask::describe() const {
  std::string s = algorithm_name(algorithm);
  switch (algorithm) {
    case Algorithm::kGem:
    case Algorithm::kGems:
    case Algorithm::kGemNonsingular:
      s += " gates=" + std::to_string(instance.circuit.num_gates());
      break;
    case Algorithm::kGep:
    case Algorithm::kGqr:
      s += " u=" + std::to_string(u) + " w=" + std::to_string(w) +
           " depth=" + std::to_string(depth);
      break;
    case Algorithm::kCount_:
      break;
  }
  if (backend != Backend::kDense) {
    s += std::string(" backend=") + backend_name(backend);
  }
  return s;
}

bool substrate_supported(Algorithm a, Substrate s) {
  if (a == Algorithm::kGqr && s == Substrate::kRational) return false;
  return true;
}

std::vector<Substrate> default_ladder(Algorithm a) {
  std::vector<Substrate> ladder = {Substrate::kDouble,
                                   Substrate::kSoftFloat53};
  if (substrate_supported(a, Substrate::kRational)) {
    ladder.push_back(Substrate::kRational);
  }
  return ladder;
}

namespace {

// GEM/GEMS/GEP over a concrete field and storage backend. GQR is handled
// separately: its kDouble rung runs over long double (the gadget master
// precision) and the Rational instantiation must never be formed (no
// field_sqrt).
template <class T, class Storage>
RunReport run_field(const ReductionTask& task, const GuardLimits& limits,
                    const FaultPlan& fault, const CheckpointConfig& ckpt) {
  switch (task.algorithm) {
    case Algorithm::kGem:
      return guarded_simulate_gem<T, Storage>(
          task.instance, factor::PivotStrategy::kMinimalSwap, limits, fault,
          ckpt);
    case Algorithm::kGems:
      return guarded_simulate_gem<T, Storage>(
          task.instance, factor::PivotStrategy::kMinimalShift, limits, fault,
          ckpt);
    case Algorithm::kGemNonsingular:
      return guarded_simulate_gem_nonsingular<T, Storage>(task.instance,
                                                          limits, fault, ckpt);
    case Algorithm::kGep:
      return guarded_run_gep_chain_t<T, Storage>(task.u, task.w, task.depth,
                                                 limits, fault, ckpt);
    case Algorithm::kGqr:  // handled by the caller
    case Algorithm::kCount_:
      break;
  }
  RunReport rep;
  rep.algorithm = algorithm_name(task.algorithm);
  rep.diagnostic = Diagnostic::kInternalError;
  rep.detail = "unreachable dispatch";
  return rep;
}

// Resolves the task's Backend to a concrete storage type for the field T.
template <class T>
RunReport run_field_backend(const ReductionTask& task,
                            const GuardLimits& limits, const FaultPlan& fault,
                            const CheckpointConfig& ckpt) {
  switch (task.backend) {
    case Backend::kDense:
      return run_field<T, Matrix<T>>(task, limits, fault, ckpt);
    case Backend::kSparse:
      return run_field<T, sparse::SparseMatrix<T>>(task, limits, fault, ckpt);
    case Backend::kCount_:
      break;
  }
  RunReport rep;
  rep.algorithm = algorithm_name(task.algorithm);
  rep.diagnostic = Diagnostic::kInternalError;
  rep.detail = "unknown backend";
  return rep;
}

template <class T>
RunReport run_gqr_backend(const ReductionTask& task, const GuardLimits& limits,
                          const FaultPlan& fault,
                          const CheckpointConfig& ckpt) {
  switch (task.backend) {
    case Backend::kDense:
      return guarded_run_gqr_chain<T, Matrix<T>>(task.u, task.w, task.depth,
                                                 limits, fault, ckpt);
    case Backend::kSparse:
      return guarded_run_gqr_chain<T, sparse::SparseMatrix<T>>(
          task.u, task.w, task.depth, limits, fault, ckpt);
    case Backend::kCount_:
      break;
  }
  RunReport rep;
  rep.algorithm = algorithm_name(task.algorithm);
  rep.diagnostic = Diagnostic::kInternalError;
  rep.detail = "unknown backend";
  return rep;
}

}  // namespace

RunReport run_on_substrate(const ReductionTask& task, Substrate s,
                           const GuardLimits& limits, const FaultPlan& fault,
                           const CheckpointConfig& ckpt) {
  if (!substrate_supported(task.algorithm, s)) {
    RunReport rep;
    rep.algorithm = algorithm_name(task.algorithm);
    rep.diagnostic = Diagnostic::kBadInput;
    rep.detail = std::string(algorithm_name(task.algorithm)) +
                 " does not support the " + substrate_name(s) +
                 " substrate (no field sqrt)";
    return rep;
  }
  if (task.algorithm == Algorithm::kGqr) {
    switch (s) {
      case Substrate::kDouble:
        return run_gqr_backend<long double>(task, limits, fault, ckpt);
      case Substrate::kSoftFloat53:
        return run_gqr_backend<numeric::Float53>(task, limits, fault, ckpt);
      case Substrate::kRational:  // rejected above
      case Substrate::kCount_:
        break;
    }
  }
  switch (s) {
    case Substrate::kDouble:
      return run_field_backend<double>(task, limits, fault, ckpt);
    case Substrate::kSoftFloat53:
      return run_field_backend<numeric::Float53>(task, limits, fault, ckpt);
    case Substrate::kRational:
      return run_field_backend<numeric::Rational>(task, limits, fault, ckpt);
    case Substrate::kCount_:
      break;
  }
  RunReport rep;
  rep.algorithm = algorithm_name(task.algorithm);
  rep.diagnostic = Diagnostic::kInternalError;
  rep.detail = "unknown substrate";
  return rep;
}

}  // namespace pfact::robustness
