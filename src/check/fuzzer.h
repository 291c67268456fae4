// Scenario fuzzing: derive a complete ScenarioPlan from one seed, run it
// deterministically, and check every invariant oracle at every quiescent
// point.
//
// Determinism contract: generate_plan(seed) and run_plan(plan) consult no
// wall clock and no global state — two invocations with the same seed
// produce the same plan, the same violations, and the same state digest,
// which is what makes shrunk reproducers and the committed corpus stable
// regression tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/plan.h"
#include "obs/recorder.h"

namespace evo::check {

/// Derive a full scenario (topology parameters, protocol configuration,
/// deployment, churn schedule) from one seed. Topology shape, IGP choice,
/// anycast option, vN-Bone knobs and the event mix all vary; the transit
/// core stays a full peering mesh so the full-health delivery oracles keep
/// their ground-truth precondition.
ScenarioPlan generate_plan(std::uint64_t seed);

/// The EvolvableInternet options `plan` runs under: its IGP and vN-Bone
/// knobs, and the protocol settings its breakage needs.
core::Options options_for(const ScenarioPlan& plan);

struct RunReport {
  /// Violations found, stamped with the episode they surfaced in
  /// (0 = after initial deployment, i >= 1 = after churn event i-1). The
  /// run stops at the first violating episode.
  std::vector<Violation> violations;
  /// FNV-1a digest over the end state (FIBs, Loc-RIBs, virtual links,
  /// topology health, events processed): equal digests mean the runs were
  /// observationally identical.
  std::uint64_t digest = 0;
  /// Quiescent points that were checked (== episodes reached).
  std::size_t episodes = 0;
  /// Total simulator events processed.
  std::uint64_t events_processed = 0;
  /// Non-empty when the plan failed validation and never ran.
  std::string invalid;

  bool clean() const { return invalid.empty() && violations.empty(); }
};

/// Build the scenario and play it to completion (or first violation).
/// When `recorder` is non-null it is attached to every component for the
/// whole run: episodes become check.episode spans, oracle violations become
/// check.violation instants, and the recorder's always-on flight ring holds
/// the events leading up to a failure (dump with obs::flight_text).
RunReport run_plan(const ScenarioPlan& plan, const OracleOptions& options = {},
                   obs::Recorder* recorder = nullptr);

}  // namespace evo::check
