#include "src/track/retune_policy.h"

#include <cmath>
#include <stdexcept>

#include "src/codebook/codebook.h"
#include "src/common/constants.h"
#include "src/control/rotation_estimator.h"

namespace llama::track {

control::PowerProbe expected_probe(core::LlamaSystem& system) {
  return [&system](common::Voltage vx, common::Voltage vy) {
    system.surface().set_bias(vx, vy);
    return system.expected_measure_with_surface();
  };
}

void HysteresisResweep::bind(core::LlamaSystem& system) {
  controller_.emplace(system.surface(), system.supply(),
                      options_.controller.value_or(system.config().controller));
}

PolicyAction HysteresisResweep::on_tick(core::LlamaSystem& system,
                                        const TickObservation& obs) {
  if (!controller_.has_value())
    throw std::logic_error{"HysteresisResweep: on_tick before bind"};
  // A dropped measurement carries no fade information; feeding the stale
  // reading to the hysteresis would either mask a real fade or re-trigger
  // on an old one. Skip the tick and decide on the next real sample.
  if (!obs.measurement_valid) return {};
  const std::optional<control::OptimizationReport> report =
      controller_->on_power_report(obs.measured, expected_probe(system),
                                   system.make_grid_probe(options_.threads));
  PolicyAction action;
  if (report.has_value()) {
    action.retuned = true;
    action.probes = report->sweep.probes;
  }
  return action;
}

PeriodicCodebook::PeriodicCodebook(const codebook::Codebook& book)
    : PeriodicCodebook(book, Options{}) {}

PeriodicCodebook::PeriodicCodebook(const codebook::Codebook& book,
                                   Options options)
    : book_(book), options_(options) {
  if (options_.period_s <= 0.0)
    throw std::invalid_argument{"PeriodicCodebook: period must be positive"};
}

void PeriodicCodebook::bind(core::LlamaSystem& system) {
  // Fail fast: run the per-call validation contract once before the first
  // tick, so a mismatched book aborts the episode at bind time.
  system.validate_codebook(book_, "PeriodicCodebook");
  next_due_s_ = 0.0;  // first tick retunes immediately
}

PolicyAction PeriodicCodebook::on_tick(core::LlamaSystem& system,
                                       const TickObservation& obs) {
  if (obs.t_s + 1e-12 < next_due_s_) return {};
  const control::OptimizationReport report =
      system.optimize_link_codebook(book_, options_.lookup);
  next_due_s_ = obs.t_s + options_.period_s;
  PolicyAction action;
  action.retuned = true;
  action.probes = report.sweep.probes;
  return action;
}

PredictiveCodebook::PredictiveCodebook(const codebook::Codebook& book)
    : PredictiveCodebook(book, Options{}) {}

PredictiveCodebook::PredictiveCodebook(const codebook::Codebook& book,
                                       Options options)
    : book_(book), options_(options) {
  if (options_.hold_loss.value() <= 0.0)
    throw std::invalid_argument{
        "PredictiveCodebook: hold loss must be positive"};
  // Invert the cos^2 mismatch loss: hold while the predicted orientation is
  // within the angle that costs less than hold_loss dB of signal.
  hold_band_ = common::Angle::radians(
      std::acos(std::pow(10.0, -options_.hold_loss.value() / 20.0)));
}

void PredictiveCodebook::bind(core::LlamaSystem& system) {
  system.validate_codebook(book_, "PredictiveCodebook");
  prev_.reset();
  programmed_.reset();
}

PolicyAction PredictiveCodebook::retune_at(core::LlamaSystem& system,
                                           common::Angle orientation) {
  const codebook::BiasPoint hit =
      book_.lookup(system.config().frequency, orientation);
  // Bias dedup: when the new orientation compiles to (nearly) the bias
  // already on the surface — half a compile grid step per axis — the switch
  // buys nothing. The hold anchor still advances, but the programmed bias
  // is kept as the comparison point, so creeping bias drift below the
  // threshold eventually accumulates into a real switch.
  if (programmed_.has_value()) {
    const double eps = 0.5 * book_.header().v_step_v;
    if (std::abs(hit.vx.value() - last_bias_.first) < eps &&
        std::abs(hit.vy.value() - last_bias_.second) < eps) {
      programmed_ = orientation;
      return {};
    }
  }
  // Retry transient switch failures with bounded backoff (airtime lands on
  // the supply clock either way), and program the surface at what the
  // supply actually delivers so a brownout clamp is felt, not hidden.
  control::set_outputs_with_retry(system.supply(), hit.vx, hit.vy,
                                  options_.retry);
  system.surface().set_bias(system.supply().output_x(),
                            system.supply().output_y());
  programmed_ = orientation;
  last_bias_ = {hit.vx.value(), hit.vy.value()};
  PolicyAction action;
  action.retuned = true;
  return action;
}

PolicyAction PredictiveCodebook::on_tick(core::LlamaSystem& system,
                                         const TickObservation& obs) {
  const double lead = options_.lead_s > 0.0 ? options_.lead_s : obs.dt_s;
  common::Angle target = obs.orientation;
  if (prev_.has_value() && obs.t_s > prev_->first) {
    // Estimate step, pi-folded and signed (std::remainder lands it in
    // [-pi/2, pi/2]): a trajectory crossing the 180 -> 0 wrap reads as its
    // true small movement, not a ~pi discontinuity.
    const double step_rad =
        std::remainder(obs.orientation.rad() - prev_->second, common::kPi);
    // A step past a quarter fold per sample is a discontinuity (the user
    // remounted the device, or the estimator glitched), not a slew the
    // linear model can extrapolate — retune at the observed orientation
    // instead of launching the prediction off the jump.
    if (std::abs(step_rad) <= common::kPi / 4.0) {
      const double rate_rad_per_s = step_rad / (obs.t_s - prev_->first);
      target = common::Angle::radians(obs.orientation.rad() +
                                      rate_rad_per_s * lead);
    }
  }
  prev_ = {obs.t_s, obs.orientation.rad()};
  if (programmed_.has_value() &&
      control::orientation_offset(target, *programmed_) < hold_band_)
    return {};  // holding costs < hold_loss of signal: not worth a switch
  return retune_at(system, target);
}

}  // namespace llama::track
