// Bias-voltage search strategies.
//
// The paper's Algorithm 1 is a coarse-to-fine sweep: N iterations, T voltage
// steps per axis per iteration; each iteration scans a TxT grid over the
// current range, then zooms into the step-sized neighbourhood of the best
// cell. Cost is 0.02 x N x T^2 seconds (at the supply's 50 Hz switch rate)
// versus ~30 s for an exhaustive 1 V-step scan of the 0-30 V plane.
//
// The sweep is decoupled from the plant through a measurement callback so it
// drives the simulated link, the USRP model, or unit-test stubs alike. Each
// sweep has one body over a grid probe; a pointwise probe is lifted into
// that interface with grid_of.
#pragma once

#include <functional>
#include <vector>

#include "src/common/units.h"
#include "src/control/power_supply.h"

namespace llama::control {

/// Measurement oracle: programs (vx, vy) on the plant and returns the
/// received signal power observed at the endpoint.
using PowerProbe = std::function<common::PowerDbm(common::Voltage vx,
                                                  common::Voltage vy)>;

/// Row-major grid of measured powers: grid[iy][ix] is the power at
/// (vys[iy], vxs[ix]).
using PowerGrid = std::vector<std::vector<common::PowerDbm>>;

/// Batched measurement oracle: evaluates the full outer product of the two
/// bias axes in one call. Implementations (LlamaSystem::make_grid_probe)
/// reuse the bias-independent cascade across the whole grid and parallelize
/// rows, which is what makes heatmap sweeps run at memory speed.
using GridPowerProbe = std::function<PowerGrid(
    const std::vector<double>& vxs, const std::vector<double>& vys)>;

/// Lifts a pointwise probe into the grid interface. Cells are measured
/// vx-outer, vy-inner — Algorithm 1's scan order — so a stateful probe (a
/// noisy receiver drawing from an RNG) sees its draws in that order.
[[nodiscard]] GridPowerProbe grid_of(PowerProbe probe);

/// Throws std::invalid_argument (prefixed by `who`) unless [v_min, v_max]
/// is a finite, non-empty range inside [0, supply.max_voltage()]. Every
/// search checks its range at construction, before any probe runs.
void validate_search_range(const char* who, common::Voltage v_min,
                           common::Voltage v_max, const PowerSupply& supply);

/// Outcome of a sweep.
struct SweepResult {
  common::Voltage best_vx{0.0};
  common::Voltage best_vy{0.0};
  common::PowerDbm best_power{-120.0};
  int probes = 0;          ///< number of voltage combinations measured
  double time_cost_s = 0;  ///< supply switching time spent
};

/// One measured point of a sweep trace (for heatmaps and diagnostics).
struct SweepSample {
  common::Voltage vx{0.0};
  common::Voltage vy{0.0};
  common::PowerDbm power{-120.0};
};

/// Paper Algorithm 1: coarse-to-fine biasing-voltage sweep.
class CoarseToFineSweep {
 public:
  struct Options {
    int iterations = 2;          ///< paper: N = 2
    int steps_per_axis = 5;      ///< paper: T = 5
    common::Voltage v_min{0.0};  ///< sweep range start (both axes)
    common::Voltage v_max{30.0};  ///< sweep range end (both axes)
    /// Bounded-backoff retry for transient supply switch failures
    /// (src/fault injection). Every retry/backoff burns supply-clock time,
    /// so SweepResult::time_cost_s stays honest under faults; an exhausted
    /// retry propagates SupplySwitchError out of the sweep. No cost on a
    /// healthy supply.
    SupplyRetryOptions retry{};
  };

  /// Throws std::invalid_argument on fewer than 1 iteration or 2 steps per
  /// axis, or a bad range (validate_search_range).
  CoarseToFineSweep(PowerSupply& supply, Options options);

  /// Runs the search: each iteration's TxT window is measured in one
  /// grid-probe call, then reduced vx-outer, vy-inner with one supply
  /// switch charged per cell; of equal powers, the earlier cell wins.
  [[nodiscard]] SweepResult run(const GridPowerProbe& probe);

  /// Full trace of measurements from the last run().
  [[nodiscard]] const std::vector<SweepSample>& trace() const {
    return trace_;
  }

 private:
  PowerSupply& supply_;
  Options options_;
  std::vector<SweepSample> trace_;
};

/// Exhaustive grid sweep (the paper's "full scan takes ~30 seconds"
/// baseline, and the instrument used for the heatmaps of Figs. 15 and 21).
class FullGridSweep {
 public:
  struct Options {
    common::Voltage v_min{0.0};
    common::Voltage v_max{30.0};
    common::Voltage step{1.0};
    /// Same transient-failure retry contract as CoarseToFineSweep.
    SupplyRetryOptions retry{};
  };

  /// Throws std::invalid_argument on a non-positive step or a bad range
  /// (validate_search_range).
  FullGridSweep(PowerSupply& supply, Options options);

  /// Measures the whole (Vx, Vy) plane in one grid-probe call, then reduces
  /// it vy-outer, vx-inner with one supply switch charged per cell.
  [[nodiscard]] SweepResult run(const GridPowerProbe& probe);

  /// Row-major grid of measured powers from the last run (rows = Vy values,
  /// columns = Vx values), plus the axis labels.
  [[nodiscard]] const std::vector<std::vector<double>>& grid_dbm() const {
    return grid_;
  }
  [[nodiscard]] const std::vector<double>& vx_values() const { return vxs_; }
  [[nodiscard]] const std::vector<double>& vy_values() const { return vys_; }

 private:
  /// Clears and rebuilds the axis labels and grid storage (state from a
  /// prior run must never leak into the next heatmap).
  void reset_axes();

  PowerSupply& supply_;
  Options options_;
  std::vector<std::vector<double>> grid_;
  std::vector<double> vxs_;
  std::vector<double> vys_;
};

}  // namespace llama::control
