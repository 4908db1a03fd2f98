#include "factor/pivot_trace.h"

#include <sstream>

namespace pfact::factor {

bool PivotTrace::used_row_for_column(std::size_t row, std::size_t col) const {
  for (const auto& e : events_) {
    if (e.column == col) {
      return e.action != PivotAction::kSkip &&
             e.action != PivotAction::kFail && e.pivot_row == row;
    }
  }
  return false;
}

std::size_t PivotTrace::swap_count() const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.action == PivotAction::kSwap || e.action == PivotAction::kShift)
      ++n;
  }
  return n;
}

std::size_t PivotTrace::skip_count() const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.action == PivotAction::kSkip) ++n;
  }
  return n;
}

bool PivotTrace::failed() const {
  for (const auto& e : events_) {
    if (e.action == PivotAction::kFail) return true;
  }
  return false;
}

std::string PivotTrace::to_string() const {
  std::ostringstream os;
  for (const auto& e : events_) {
    os << "col " << e.column << ": ";
    switch (e.action) {
      case PivotAction::kKeep:
        os << "pivot in place (orig row " << e.pivot_row << ")";
        break;
      case PivotAction::kSwap:
        os << "swap with pos " << e.pivot_pos << " (orig row " << e.pivot_row
           << ")";
        break;
      case PivotAction::kShift:
        os << "shift from pos " << e.pivot_pos << " (orig row "
           << e.pivot_row << ")";
        break;
      case PivotAction::kSkip:
        os << "skip (zero column)";
        break;
      case PivotAction::kFail:
        os << "FAIL (zero pivot, no pivoting)";
        break;
      case PivotAction::kCount_:
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace pfact::factor
