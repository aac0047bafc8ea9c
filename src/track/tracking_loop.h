// Closed-loop tracking runtime for dynamic endpoints (the paper's Fig. 1
// wearable and Section 7 dense-IoT scenarios): a discrete-time loop that
// advances an orientation process on a fixed tick, measures the link, and
// delegates retuning to a pluggable RetunePolicy.
//
// Timing model: the tick is the control period dt. All supply switching a
// policy performs on a tick is charged to that tick's retune airtime; while
// accumulated airtime exceeds the tick budget the controller is busy — the
// policy is not consulted and the link carries no traffic (duty 0). This is
// how a ~1 s Algorithm-1 re-sweep blacks out ten 100 ms ticks while a 20 ms
// codebook switch costs a fifth of one. The loop does not dilate its time
// base: orientation keeps evolving underneath a busy controller, exactly the
// regime that breaks the sweep path at walking-speed arm swings.
//
// Measurements use the receiver's deterministic expected-power model (no
// RNG state consumed), so a loop — and the FleetTracker sharding many of
// them — is a pure function of its inputs, byte-identical for any thread
// count.
#pragma once

#include <optional>
#include <vector>

#include "src/channel/ber.h"
#include "src/channel/mobility.h"
#include "src/common/units.h"
#include "src/core/llama_system.h"
#include "src/track/retune_policy.h"

namespace llama::fault {
class FaultInjector;
}  // namespace llama::fault

namespace llama::track {

/// One tick of the loop's trace.
struct TrackTrace {
  long tick = 0;
  double t_s = 0.0;
  common::Angle orientation;
  /// Expected received power at the post-action bias.
  common::PowerDbm power{-120.0};
  bool retuned = false;
  int probes = 0;
  /// Supply switching time the policy spent on this tick.
  double retune_airtime_s = 0.0;
  /// Fraction of the tick left for traffic after retune airtime (carried
  /// busy time included).
  double duty = 1.0;
  /// Link-layer throughput at the tick's SNR, scaled by the duty.
  double delivered_mbps = 0.0;
  /// Below the power floor, or the whole tick was consumed by retuning.
  bool outage = false;
  /// False when the fault layer dropped this tick's measurement (the policy
  /// saw the last valid reading instead).
  bool measurement_valid = true;
};

/// Aggregates over one run.
struct TrackReport {
  long ticks = 0;
  double duration_s = 0.0;
  /// Fraction of ticks in outage (power under the floor or duty 0).
  double outage_fraction = 0.0;
  long retune_count = 0;
  /// Total supply switching time spent retuning.
  double retune_airtime_s = 0.0;
  /// Mean airtime per retune event (0 when no retune ran).
  double mean_retune_latency_s = 0.0;
  double mean_power_dbm = 0.0;
  double min_power_dbm = 0.0;
  /// Mean per-tick delivered link-layer throughput.
  double mean_delivered_mbps = 0.0;
  /// Measurements the fault layer dropped (policy consulted with stale
  /// telemetry). Always 0 without a fault context.
  long dropped_measurements = 0;
  /// Per-tick records; empty when Options::keep_trace is false.
  std::vector<TrackTrace> trace;
};

class TrackingLoop {
 public:
  struct Options {
    /// Control period [s]; every tick advances the orientation process by
    /// this much.
    double dt_s = 0.1;
    /// Noise + interference level the SNR is referenced against.
    common::PowerDbm noise{-62.0};
    /// Outage threshold; defaults to the noise level plus the link layer's
    /// most robust rate threshold (below it the protocol delivers nothing).
    std::optional<common::PowerDbm> power_floor;
    channel::LinkLayerModel link_layer = channel::LinkLayerModel::ble_1m();
    /// Drop to skip per-tick trace storage (fleet-scale runs).
    bool keep_trace = true;
  };

  /// All three collaborators must outlive the loop. Throws
  /// std::invalid_argument on a non-positive dt.
  TrackingLoop(core::LlamaSystem& system, channel::OrientationProcess& process,
               RetunePolicy& policy);
  TrackingLoop(core::LlamaSystem& system, channel::OrientationProcess& process,
               RetunePolicy& policy, Options options);

  /// Runs one episode of `ticks` steps from t = 0 (the policy is re-bound,
  /// resetting its episode state; the orientation process continues from
  /// wherever previous queries left it — stateless processes like ArmSwing
  /// restart exactly). Throws std::invalid_argument when ticks <= 0.
  /// Equivalent to begin(ticks) + ticks x step() + finish().
  [[nodiscard]] TrackReport run(long ticks);

  /// Incremental episode API: FleetTracker's tick loop drives every
  /// device's loop through it, running its serial hooks (health pass,
  /// neighbor-surface leakage snapshot) between ticks. begin() binds the
  /// policy and resets the episode accumulators; each step() advances
  /// exactly one control tick; finish() seals and returns the report.
  /// begin() throws std::invalid_argument when ticks <= 0; step()/finish()
  /// throw std::logic_error outside an episode.
  void begin(long ticks);
  void step();
  [[nodiscard]] TrackReport finish();

  /// The effective outage floor (explicit option or the link-layer default).
  [[nodiscard]] common::PowerDbm power_floor() const;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Which fault schedule (if any) this loop's ticks run under, and which
  /// (device, surface) identity the draws and surface faults key on.
  struct FaultContext {
    /// Must outlive the loop; nullptr disables the fault layer.
    const fault::FaultInjector* injector = nullptr;
    std::size_t device = 0;
    std::size_t surface = 0;
  };

  /// Installs (or clears, with a null injector) the fault context. May be
  /// updated mid-episode: the fleet driver re-points a device at another
  /// surface when health quarantines its home surface.
  void set_fault_context(FaultContext context) { fault_ = context; }
  [[nodiscard]] const FaultContext& fault_context() const { return fault_; }

  /// Re-binds the policy to the system mid-episode, resetting the policy's
  /// episode state — used when a fleet reassignment hands the device to a
  /// different surface. Throws std::logic_error outside an episode.
  void rebind_policy();

  /// The last completed tick, regardless of Options::keep_trace (the fleet
  /// health pass reads per-tick outage evidence here without paying for a
  /// full trace). nullopt before the first step of an episode or outside
  /// one.
  [[nodiscard]] std::optional<TrackTrace> last_tick() const;

 private:
  /// Accumulator state of one in-flight episode.
  struct Episode {
    explicit Episode(channel::Antenna rx) : rx_template(std::move(rx)) {}

    channel::Antenna rx_template;
    common::PowerDbm floor{-120.0};
    long planned_ticks = 0;
    long tick = 0;
    long outages = 0;
    double power_sum = 0.0;
    double delivered_sum = 0.0;
    /// Retune airtime not yet absorbed by past ticks (mid-retune blackout).
    double busy_s = 0.0;
    /// Last reading the receiver actually returned; replayed to the policy
    /// on dropped-measurement ticks.
    common::PowerDbm last_valid{-120.0};
    std::optional<TrackTrace> last;
    TrackReport report;
  };

  core::LlamaSystem& system_;
  channel::OrientationProcess& process_;
  RetunePolicy& policy_;
  Options options_;
  FaultContext fault_;
  std::optional<Episode> episode_;
};

}  // namespace llama::track
