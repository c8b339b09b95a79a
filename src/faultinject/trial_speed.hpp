// Process-wide switch for the trial inner-loop fast path.
//
// The toggle here is a pure optimisation: campaign traces are byte-for-byte
// identical with it on or off, at any worker count (test_trial_speed
// enforces this). Because results never depend on it, it is deliberately NOT
// part of any campaign config hash and has no CLI flag — callers that want a
// slow reference run (benchmarks, the equivalence tests) set it
// programmatically.
#pragma once

namespace restore::faultinject {

struct TrialSpeedConfig {
  // End a trial early once the faulty core is bit-identical to a golden
  // checkpoint at the same cycle offset; the rest of the record is derived
  // from golden data. Automatically disabled for budget-limited trials,
  // whose abort behaviour depends on executing the real cycles.
  bool convergence_shortcut = true;
};

// Current process-wide configuration (copy). Thread-safe.
TrialSpeedConfig trial_speed() noexcept;

// Replace the process-wide configuration. Call between campaigns, not while
// one is running: shards snapshot the config when they start.
void set_trial_speed(const TrialSpeedConfig& config) noexcept;

}  // namespace restore::faultinject
