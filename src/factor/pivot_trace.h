#pragma once
// Pivot traces: the sequence of pivoting decisions an elimination makes.
//
// The paper's GEP result (Theorem 3.4) is literally a statement about this
// object: L = {(i,j,A) : on input A, GEP uses row i to eliminate column j}
// is P-complete.  The GEP reduction decodes the simulated circuit's output
// from the trace; the GEM/GEMS reductions decode it from a matrix entry but
// their proofs hinge on which swaps/shifts occur, so tests assert on traces.

#include <cstddef>
#include <string>
#include <vector>

#include "matrix/matrix.h"

namespace pfact::factor {

enum class PivotAction {
  kKeep,   // pivot already in place (row k eliminates column k)
  kSwap,   // rows k and pivot_pos exchanged (GEP / GEM)
  kShift,  // rows k..pivot_pos circularly shifted (GEMS)
  kSkip,   // column k had no nonzero at or below the diagonal
  kFail,   // plain GE met a zero pivot and stopped
  kCount_,  // sentinel: number of actions
};

struct PivotEvent {
  std::size_t column = 0;      // column being eliminated (0-based)
  std::size_t pivot_pos = 0;   // position of the chosen pivot row pre-move
  std::size_t pivot_row = 0;   // ORIGINAL index of the chosen pivot row
  PivotAction action = PivotAction::kKeep;

  bool operator==(const PivotEvent&) const = default;
};

class PivotTrace {
 public:
  void record(PivotEvent e) { events_.push_back(e); }

  const std::vector<PivotEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  const PivotEvent& operator[](std::size_t i) const { return events_[i]; }

  // True iff GEP/GEM/GEMS used original row i to eliminate column j —
  // membership in the language of Theorem 3.4.
  bool used_row_for_column(std::size_t row, std::size_t col) const;

  std::size_t swap_count() const;
  std::size_t skip_count() const;
  bool failed() const;

  std::string to_string() const;

  // Event-for-event equality: the bar kill/resume, dense/sparse and
  // sharded/unsharded runs are held to.
  bool operator==(const PivotTrace&) const = default;

 private:
  std::vector<PivotEvent> events_;
};

}  // namespace pfact::factor
