// Pluggable retune policies for the closed-loop tracking runtime.
//
// A policy is the "when and how to retune" half of a TrackingLoop: each tick
// it sees the loop's observation (time, orientation estimate, measured
// power) and may reprogram the supply/surface. Three strategies span the
// paper's design space:
//
//  - HysteresisResweep: the paper's fade-triggered Algorithm-1 re-sweep
//    (control::Controller hysteresis) — finds the optimum from scratch, but
//    costs ~1 s of supply switching per retune (N*T^2 switches at 50 Hz).
//  - PeriodicCodebook: the compiled-codebook O(1) lookup on a fixed timer —
//    one 20 ms supply switch per period, blind to fades between expiries.
//  - PredictiveCodebook: extrapolates the orientation trajectory from the
//    two most recent estimates and programs the *predicted* orientation's
//    compiled bias ahead of the fade — one switch, and only when the
//    prediction has moved by more than the lattice can resolve.
//
// Contract (see README "Tracking runtime"): on_tick is the only place a
// policy may touch the system's supply or surface, and every supply switch
// issued inside on_tick is charged by the loop to that tick's retune
// airtime via the supply-clock delta. bind() is called once per
// TrackingLoop::run and must reset per-episode state, so consecutive runs
// of one policy object are independent. Policies measure through the
// deterministic expected-power model (no RNG state), which is what keeps
// FleetTracker byte-identical for any thread count.
//
// The loop enforces its half of this contract with LLAMA_ENSURES
// (src/common/contracts.h, armed via -DLLAMA_CHECKED=ON): a policy whose
// on_tick rewinds the supply clock, or leaves a tick with duty outside
// [0, 1], throws common::ContractViolation in checked builds instead of
// silently corrupting the airtime accounting.
#pragma once

#include <optional>

#include "src/common/units.h"
#include "src/control/controller.h"
#include "src/core/llama_system.h"

namespace llama::codebook {
class Codebook;
}  // namespace llama::codebook

namespace llama::track {

/// Per-tick snapshot handed to a policy by the loop.
struct TickObservation {
  long tick = 0;
  double t_s = 0.0;
  double dt_s = 0.0;
  /// Orientation estimate for this tick. The simulation feeds the process's
  /// true value; a hardware deployment would supply the Section 3.4
  /// rotation-estimator output here.
  common::Angle orientation;
  /// Power measured at the current bias after the orientation update and
  /// before any retune — the policy's fade signal.
  common::PowerDbm measured{-120.0};
  /// False when the fault layer dropped this tick's measurement; `measured`
  /// then carries the last valid reading (stale telemetry). Policies that
  /// trigger on measured power should not treat a stale reading as a fade.
  bool measurement_valid = true;
};

/// What a policy did on one tick. Airtime is accounted by the loop from the
/// supply clock, not self-reported.
struct PolicyAction {
  bool retuned = false;
  int probes = 0;  ///< measurements consumed by the retune
};

class RetunePolicy {
 public:
  virtual ~RetunePolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once at the start of every TrackingLoop::run, before the first
  /// tick. Must reset episode state; codebook policies also validate the
  /// book against the live system here (mode, config hash, frequency
  /// coverage) so a stale codebook fails fast instead of mid-episode.
  virtual void bind(core::LlamaSystem& system) { (void)system; }

  /// One control decision. May program the supply/surface; must not touch
  /// any other loop state.
  virtual PolicyAction on_tick(core::LlamaSystem& system,
                               const TickObservation& obs) = 0;
};

/// Deterministic point probe for a policy's re-sweep baseline: programs the
/// surface and reads the expected power (no RNG state consumed), so fleet
/// shards stay byte-identical. `system` must outlive the probe.
[[nodiscard]] control::PowerProbe expected_probe(core::LlamaSystem& system);

/// The paper's tracking strategy: consume the per-tick power report through
/// control::Controller's hysteresis and run a full Algorithm-1 re-sweep when
/// the link has faded past the threshold. Re-sweeps measure through the
/// bound system's grid probe (expected power, no RNG state).
class HysteresisResweep final : public RetunePolicy {
 public:
  struct Options {
    /// Controller (sweep + hysteresis) options; when unset, bind() adopts
    /// the bound system's configured options (SystemConfig::controller) —
    /// the same ones its own optimize_link paths run with — so a fleet's
    /// deployment.sweep settings reach the policy unduplicated.
    std::optional<control::Controller::Options> controller;
    /// Worker threads for the re-sweep grid (1 keeps fleet shards from
    /// nesting parallelism; results are byte-identical for any value).
    int threads = 1;
  };

  HysteresisResweep() : HysteresisResweep(Options{}) {}
  explicit HysteresisResweep(Options options) : options_(options) {}

  [[nodiscard]] const char* name() const override {
    return "hysteresis_resweep";
  }
  void bind(core::LlamaSystem& system) override;
  PolicyAction on_tick(core::LlamaSystem& system,
                       const TickObservation& obs) override;

 private:
  Options options_;
  /// Rebuilt by bind(): the controller references the bound system's
  /// surface and supply.
  std::optional<control::Controller> controller_;
};

/// Codebook lookup on a fixed timer: one O(1) retune every `period_s`,
/// regardless of what the link is doing in between.
class PeriodicCodebook final : public RetunePolicy {
 public:
  struct Options {
    double period_s = 0.5;
    core::CodebookLinkOptions lookup{};
  };

  /// `book` must outlive the policy. Throws std::invalid_argument on a
  /// non-positive period.
  explicit PeriodicCodebook(const codebook::Codebook& book);
  PeriodicCodebook(const codebook::Codebook& book, Options options);

  [[nodiscard]] const char* name() const override {
    return "periodic_codebook";
  }
  void bind(core::LlamaSystem& system) override;
  PolicyAction on_tick(core::LlamaSystem& system,
                       const TickObservation& obs) override;

 private:
  const codebook::Codebook& book_;
  Options options_;
  double next_due_s_ = 0.0;
};

/// Feed-forward tracking: linearly extrapolate the orientation from the two
/// most recent estimates and program the predicted orientation's compiled
/// bias *before* the fade arrives. A switch is spent only when holding the
/// current bias would cost real signal: the policy holds while the
/// predicted orientation stays inside the angle whose cos^2 polarization-
/// mismatch loss is below `hold_loss` (1 dB ~ 27 deg), so a static device
/// costs exactly one switch and a swinging one a few per cycle — not one
/// per tick.
class PredictiveCodebook final : public RetunePolicy {
 public:
  struct Options {
    /// Prediction horizon [s]; <= 0 predicts one loop tick ahead.
    double lead_s = -1.0;
    /// Mismatch loss tolerated before a retune is worth a supply switch:
    /// the hold band is the angle theta with -20*log10(cos theta) equal to
    /// this (the paper's cos^2 polarization loss model).
    common::GainDb hold_loss{1.0};
    /// Transient-switch-failure retry (see the RetunePolicy contract:
    /// retries and backoff dwell on the supply clock, so the loop charges
    /// them to this tick's retune airtime).
    control::SupplyRetryOptions retry{};
  };

  /// `book` must outlive the policy.
  explicit PredictiveCodebook(const codebook::Codebook& book);
  PredictiveCodebook(const codebook::Codebook& book, Options options);

  [[nodiscard]] const char* name() const override {
    return "predictive_codebook";
  }
  void bind(core::LlamaSystem& system) override;
  PolicyAction on_tick(core::LlamaSystem& system,
                       const TickObservation& obs) override;

 private:
  /// One lookup + supply switch at `orientation`.
  PolicyAction retune_at(core::LlamaSystem& system, common::Angle orientation);

  const codebook::Codebook& book_;
  Options options_;
  common::Angle hold_band_;  ///< derived from Options::hold_loss
  std::optional<std::pair<double, double>> prev_;  ///< (t_s, orientation_rad)
  std::optional<common::Angle> programmed_;
  std::pair<double, double> last_bias_{0.0, 0.0};  ///< (vx, vy) on the surface
};

}  // namespace llama::track
