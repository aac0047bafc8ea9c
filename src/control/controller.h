// The centralized controller (paper Fig. 5): closes the loop between the
// endpoint's power reports and the metasurface bias voltages.
//
// Flow per optimization round: the receiver reports signal power, the
// controller runs the coarse-to-fine sweep (Algorithm 1) through the power
// supply, and leaves the surface programmed at the winning bias pair. The
// round has one body over a grid probe; the pointwise overloads program the
// surface before every probe and lift it with grid_of.
#pragma once

#include <optional>

#include "src/common/units.h"
#include "src/control/power_supply.h"
#include "src/control/sweep.h"
#include "src/metasurface/metasurface.h"

namespace llama::control {

/// Summary of one optimization round.
struct OptimizationReport {
  SweepResult sweep;
  common::PowerDbm baseline{-120.0};  ///< power before optimization
  common::GainDb improvement{0.0};    ///< best - baseline
};

class Controller {
 public:
  struct Options {
    CoarseToFineSweep::Options sweep;
    /// Re-optimize only when power drops by at least this much below the
    /// last optimum (hysteresis for the tracking loop).
    common::GainDb reoptimize_threshold{3.0};
  };

  /// Uses default (paper) options. Both constructors build the one
  /// CoarseToFineSweep every round runs, so bad sweep options throw
  /// std::invalid_argument here rather than at the first round.
  Controller(metasurface::Metasurface& surface, PowerSupply& supply);
  Controller(metasurface::Metasurface& surface, PowerSupply& supply,
             Options options);

  /// One full optimization round: re-syncs the surface to the controller's
  /// bias, reads the baseline there through `baseline_probe`, runs Algorithm
  /// 1 with each iteration's bias window measured in one `grid_probe` call,
  /// and programs the optimum.
  OptimizationReport optimize(const PowerProbe& baseline_probe,
                              const GridPowerProbe& grid_probe);

  /// The same round over a pointwise probe: the surface is programmed
  /// before every probe (for plants that read it), and the sweep lifts the
  /// probe with grid_of.
  OptimizationReport optimize(const PowerProbe& probe);

  /// Tracking step: consumes one power report; triggers a re-optimization
  /// when the link has degraded past the hysteresis threshold (e.g. the
  /// wearable's arm swung). Returns the report when a sweep ran.
  std::optional<OptimizationReport> on_power_report(
      common::PowerDbm report, const PowerProbe& baseline_probe,
      const GridPowerProbe& grid_probe);

  /// on_power_report over a pointwise probe, lifted as in optimize(probe).
  std::optional<OptimizationReport> on_power_report(common::PowerDbm report,
                                                    const PowerProbe& probe);

  [[nodiscard]] common::Voltage current_vx() const { return vx_; }
  [[nodiscard]] common::Voltage current_vy() const { return vy_; }
  [[nodiscard]] std::optional<common::PowerDbm> last_optimum() const {
    return last_optimum_;
  }

 private:
  void apply(common::Voltage vx, common::Voltage vy);
  /// `probe` with the surface programmed at (vx, vy) before each read.
  [[nodiscard]] PowerProbe programmed(const PowerProbe& probe);
  /// Hysteresis predicate: true while the report sits within the threshold
  /// of the last optimum (a missing optimum is never healthy).
  [[nodiscard]] bool link_healthy(common::PowerDbm report) const;

  metasurface::Metasurface& surface_;
  PowerSupply& supply_;
  Options options_;
  CoarseToFineSweep sweep_;
  common::Voltage vx_{0.0};
  common::Voltage vy_{0.0};
  std::optional<common::PowerDbm> last_optimum_;
};

}  // namespace llama::control
