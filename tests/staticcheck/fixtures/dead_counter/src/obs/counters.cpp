// staticcheck fixture: the Counter/Histogram name rows, with a row for the
// seeded dead counter. Not compiled — parsed only.
#include "obs/counters.h"

#include "obs/taxonomy.h"

namespace pfact::obs {

namespace {

constexpr std::array<NameRow<Counter>, kNumCounters> kCounterRows = {{
    {Counter::kElimSteps, "elim-steps"},
    {Counter::kRowUpdates, "row-updates"},
    {Counter::kOrphanEvents, "orphan-events"},
}};

constexpr std::array<NameRow<Histogram>, kNumHistograms> kHistogramRows = {{
    {Histogram::kPivotMoveDistance, "pivot-move-distance"},
}};

static_assert(is_row_table(kCounterRows));
static_assert(is_row_table(kHistogramRows));

}  // namespace

}  // namespace pfact::obs
