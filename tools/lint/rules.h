#pragma once
// One declaration per rule family; one rules_*.cpp module per family.

#include "lint/engine.h"

namespace pfact_lint {

// rules_io.cpp — PL014 blocking-call-undeadlined.
void check_blocking_io(Context& ctx);

// rules_signal.cpp — PL015 signal-unsafe-handler.
void check_signal_safety(Context& ctx);

// rules_layers.cpp — PL016 layering-violation.
void check_layering(Context& ctx);

// rules_obs.cpp — PL017 counter-dead.
void check_counter_liveness(Context& ctx);

// rules_backoff.cpp — PL018 adhoc-backoff.
void check_adhoc_backoff(Context& ctx);

}  // namespace pfact_lint
