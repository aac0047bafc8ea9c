#include "src/control/controller.h"

namespace llama::control {

Controller::Controller(metasurface::Metasurface& surface, PowerSupply& supply)
    : Controller(surface, supply, Options{}) {}

Controller::Controller(metasurface::Metasurface& surface, PowerSupply& supply,
                       Options options)
    : surface_(surface),
      supply_(supply),
      options_(options),
      sweep_(supply_, options_.sweep) {}

void Controller::apply(common::Voltage vx, common::Voltage vy) {
  vx_ = vx;
  vy_ = vy;
  surface_.set_bias(vx, vy);
}

PowerProbe Controller::programmed(const PowerProbe& probe) {
  return [this, &probe](common::Voltage vx, common::Voltage vy) {
    surface_.set_bias(vx, vy);
    return probe(vx, vy);
  };
}

OptimizationReport Controller::optimize(const PowerProbe& baseline_probe,
                                        const GridPowerProbe& grid_probe) {
  OptimizationReport report;
  // Re-sync the surface to the controller's bias before the baseline: it
  // may have been rebiased behind the controller's back (another
  // controller, a codebook path, a bench poking set_bias), and a baseline
  // read at that desynced state misreports the power at (vx_, vy_) — and
  // with it report.improvement. The caller's baseline probe may or may not
  // program the surface itself.
  surface_.set_bias(vx_, vy_);
  report.baseline = baseline_probe(vx_, vy_);
  report.sweep = sweep_.run(grid_probe);
  apply(report.sweep.best_vx, report.sweep.best_vy);
  report.improvement = report.sweep.best_power - report.baseline;
  last_optimum_ = report.sweep.best_power;
  return report;
}

OptimizationReport Controller::optimize(const PowerProbe& probe) {
  return optimize(programmed(probe), grid_of(programmed(probe)));
}

bool Controller::link_healthy(common::PowerDbm report) const {
  return last_optimum_.has_value() &&
         report.value() >=
             last_optimum_->value() - options_.reoptimize_threshold.value();
}

std::optional<OptimizationReport> Controller::on_power_report(
    common::PowerDbm report, const PowerProbe& baseline_probe,
    const GridPowerProbe& grid_probe) {
  if (link_healthy(report)) return std::nullopt;
  return optimize(baseline_probe, grid_probe);
}

std::optional<OptimizationReport> Controller::on_power_report(
    common::PowerDbm report, const PowerProbe& probe) {
  return on_power_report(report, programmed(probe), grid_of(programmed(probe)));
}

}  // namespace llama::control
