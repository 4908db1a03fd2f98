#pragma once
// Seeded violation for PL017: Counter::kOrphanEvents is fully registered
// (enum + name row) but nothing in src/ or bench/ ever bumps it and no test
// or bench source observes it.

namespace pfact::obs {

enum class Counter : std::size_t {
  kElimSteps,
  kRowUpdates,
  kOrphanEvents,
  kCount_,
};

enum class Histogram : std::size_t {
  kPivotMoveDistance,
  kCount_,
};

}  // namespace pfact::obs
