// staticcheck fixture: the Counter/Histogram name rows in the house shape
// pfact_lint parses. Not compiled — parsed only.
#include "obs/counters.h"

#include "obs/taxonomy.h"

namespace pfact::obs {

namespace {

constexpr std::array<NameRow<Counter>, kNumCounters> kCounterRows = {{
    {Counter::kElimSteps, "elim-steps"},
    {Counter::kRowUpdates, "row-updates"},
}};

constexpr std::array<NameRow<Histogram>, kNumHistograms> kHistogramRows = {{
    {Histogram::kPivotMoveDistance, "pivot-move-distance"},
}};

static_assert(is_row_table(kCounterRows));
static_assert(is_row_table(kHistogramRows));

}  // namespace

}  // namespace pfact::obs
