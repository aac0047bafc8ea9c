#include "src/control/sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/math_utils.h"

namespace llama::control {

GridPowerProbe grid_of(PowerProbe probe) {
  return [probe = std::move(probe)](const std::vector<double>& vxs,
                                    const std::vector<double>& vys) {
    PowerGrid grid(vys.size(), std::vector<common::PowerDbm>(vxs.size()));
    for (std::size_t ix = 0; ix < vxs.size(); ++ix)
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        grid[iy][ix] =
            probe(common::Voltage{vxs[ix]}, common::Voltage{vys[iy]});
    return grid;
  };
}

void validate_search_range(const char* who, common::Voltage v_min,
                           common::Voltage v_max, const PowerSupply& supply) {
  const double lo = v_min.value();
  const double hi = v_max.value();
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw std::invalid_argument{std::string{who} +
                                ": voltage range must be finite"};
  if (!(hi > lo))
    throw std::invalid_argument{std::string{who} +
                                ": empty or inverted voltage range"};
  if (lo < 0.0 || hi > supply.max_voltage().value())
    throw std::invalid_argument{std::string{who} +
                                ": voltage range leaves [0, supply max]"};
}

CoarseToFineSweep::CoarseToFineSweep(PowerSupply& supply, Options options)
    : supply_(supply), options_(options) {
  if (options_.iterations < 1)
    throw std::invalid_argument{"CoarseToFineSweep: iterations must be >= 1"};
  if (options_.steps_per_axis < 2)
    throw std::invalid_argument{"CoarseToFineSweep: need >= 2 steps per axis"};
  validate_search_range("CoarseToFineSweep", options_.v_min, options_.v_max,
                        supply_);
}

SweepResult CoarseToFineSweep::run(const GridPowerProbe& probe) {
  trace_.clear();
  trace_.reserve(static_cast<std::size_t>(options_.iterations) *
                 static_cast<std::size_t>(options_.steps_per_axis) *
                 static_cast<std::size_t>(options_.steps_per_axis));
  const double t0 = supply_.elapsed_s();
  SweepResult result;
  // Current sweep window, shared by both axes at iteration start
  // (paper Algorithm 1: Vr_{x,1} = [vmin, vmax], Vr_{y,1} likewise).
  double x_lo = options_.v_min.value();
  double x_hi = options_.v_max.value();
  double y_lo = x_lo;
  double y_hi = x_hi;
  const int t_steps = options_.steps_per_axis;

  std::vector<double> vxs(static_cast<std::size_t>(t_steps));
  std::vector<double> vys(static_cast<std::size_t>(t_steps));
  for (int n = 0; n < options_.iterations; ++n) {
    const double x_step = (x_hi - x_lo) / t_steps;
    const double y_step = (y_hi - y_lo) / t_steps;
    // Grid points i, j in [1, T] of the current window.
    for (int i = 1; i <= t_steps; ++i) {
      vxs[static_cast<std::size_t>(i - 1)] = x_lo + x_step * i;
      vys[static_cast<std::size_t>(i - 1)] = y_lo + y_step * i;
    }
    const PowerGrid grid = probe(vxs, vys);
    // The winner starts at the first probed grid point (i = j = 1) with a
    // -inf power, so even a plane whose every probe reads arbitrarily low
    // still reports a bias the sweep actually visited.
    double best_x = x_lo + x_step;
    double best_y = y_lo + y_step;
    common::PowerDbm best{-std::numeric_limits<double>::infinity()};
    // Reduce vx outer, vy inner (grid_of's probe order), charging one supply
    // switch per cell.
    for (int i = 0; i < t_steps; ++i) {
      for (int j = 0; j < t_steps; ++j) {
        const common::Voltage vx{vxs[static_cast<std::size_t>(i)]};
        const common::Voltage vy{vys[static_cast<std::size_t>(j)]};
        set_outputs_with_retry(supply_, vx, vy, options_.retry);
        const common::PowerDbm p = grid[static_cast<std::size_t>(j)]
                                       [static_cast<std::size_t>(i)];
        trace_.push_back({vx, vy, p});
        ++result.probes;
        if (p > best) {
          best = p;
          best_x = vx.value();
          best_y = vy.value();
        }
      }
    }
    result.best_vx = common::Voltage{best_x};
    result.best_vy = common::Voltage{best_y};
    result.best_power = best;
    // Zoom: next window is the step-sized neighbourhood below the winner
    // (paper: Vr_{x,n+1} = [v - Vs, v]).
    x_lo = std::max(best_x - x_step, options_.v_min.value());
    x_hi = best_x;
    y_lo = std::max(best_y - y_step, options_.v_min.value());
    y_hi = best_y;
    if (x_hi <= x_lo) x_hi = x_lo + 1e-3;
    if (y_hi <= y_lo) y_hi = y_lo + 1e-3;
  }
  result.time_cost_s = supply_.elapsed_s() - t0;
  return result;
}

FullGridSweep::FullGridSweep(PowerSupply& supply, Options options)
    : supply_(supply), options_(options) {
  if (!(options_.step.value() > 0.0))
    throw std::invalid_argument{"FullGridSweep: step must be positive"};
  validate_search_range("FullGridSweep", options_.v_min, options_.v_max,
                        supply_);
}

void FullGridSweep::reset_axes() {
  // Fully reset the outputs so repeated run() calls on one sweep object can
  // never leak a previous run's rows or axis labels, and size everything up
  // front.
  grid_.clear();
  // Index-based generation (lo + i*step): repeated `v += step` accumulation
  // drifts by an ulp per addition, shifting every probed bias off the
  // nominal lattice and, at unlucky range/step combinations, adding or
  // dropping the final grid point.
  vxs_ = common::stepped_range(options_.v_min.value(), options_.v_max.value(),
                               options_.step.value());
  vys_ = vxs_;
  grid_.reserve(vys_.size());
}

SweepResult FullGridSweep::run(const GridPowerProbe& probe) {
  reset_axes();
  const double t0 = supply_.elapsed_s();
  SweepResult result;
  const PowerGrid powers = probe(vxs_, vys_);
  // First probed cell seeds the winner (same rationale as CoarseToFineSweep:
  // an all-floor plane must still report a probed bias, not the default).
  result.best_vx = common::Voltage{vxs_.front()};
  result.best_vy = common::Voltage{vys_.front()};
  common::PowerDbm best{-std::numeric_limits<double>::infinity()};
  // Reduce vy outer, vx inner; each cell charges one supply switch, so the
  // instrument-time model is the exhaustive scan's.
  for (std::size_t iy = 0; iy < vys_.size(); ++iy) {
    std::vector<double> row;
    row.reserve(vxs_.size());
    for (std::size_t ix = 0; ix < vxs_.size(); ++ix) {
      set_outputs_with_retry(supply_, common::Voltage{vxs_[ix]},
                             common::Voltage{vys_[iy]}, options_.retry);
      const common::PowerDbm p = powers[iy][ix];
      row.push_back(p.value());
      ++result.probes;
      if (p > best) {
        best = p;
        result.best_vx = common::Voltage{vxs_[ix]};
        result.best_vy = common::Voltage{vys_[iy]};
      }
    }
    grid_.push_back(std::move(row));
  }
  result.best_power = best;
  result.time_cost_s = supply_.elapsed_s() - t0;
  return result;
}

}  // namespace llama::control
