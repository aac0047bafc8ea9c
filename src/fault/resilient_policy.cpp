#include "src/fault/resilient_policy.h"

#include <stdexcept>

#include "src/codebook/codebook.h"

namespace llama::fault {

ResilientPolicy::ResilientPolicy(const codebook::Codebook& book)
    : ResilientPolicy(book, Options{}) {}

ResilientPolicy::ResilientPolicy(const codebook::Codebook& book,
                                 Options options)
    : book_(book), options_(options) {
  if (options_.period_s <= 0.0)
    throw std::invalid_argument{"ResilientPolicy: period must be positive"};
  if (options_.escalate_after < 1)
    throw std::invalid_argument{
        "ResilientPolicy: escalate_after must be >= 1"};
  if (options_.direct_holdoff_s <= 0.0)
    throw std::invalid_argument{
        "ResilientPolicy: direct holdoff must be positive"};
}

void ResilientPolicy::bind(core::LlamaSystem& system) {
  system.validate_codebook(book_, "ResilientPolicy");
  controller_.emplace(
      system.surface(), system.supply(),
      options_.controller.value_or(system.config().controller));
  level_ = Level::kCodebook;
  deviation_streak_ = 0;
  next_due_s_ = 0.0;
  direct_until_s_ = 0.0;
  last_achieved_.reset();
}

void ResilientPolicy::escalate(const track::TickObservation& obs) {
  if (++deviation_streak_ < options_.escalate_after) return;
  deviation_streak_ = 0;
  switch (level_) {
    case Level::kCodebook:
      level_ = Level::kRefine;
      break;
    case Level::kRefine:
      level_ = Level::kResweep;
      break;
    case Level::kResweep:
      // Even a from-scratch sweep cannot reach the compiled expectation:
      // the surface is not serving this link. Park — every further switch
      // would be pure blackout airtime.
      level_ = Level::kDirectOnly;
      direct_until_s_ = obs.t_s + options_.direct_holdoff_s;
      break;
    case Level::kDirectOnly:
      break;
  }
  // Escalations act on the next tick, not a full period later.
  next_due_s_ = obs.t_s;
}

std::optional<common::PowerDbm> ResilientPolicy::retune(
    core::LlamaSystem& system, const track::TickObservation& obs,
    track::PolicyAction& action) {
  (void)obs;
  try {
    switch (level_) {
      case Level::kCodebook: {
        core::CodebookLinkOptions o = options_.lookup;
        o.enable_fine_sweep = false;  // O(1) fast path, no sweeps
        control::OptimizationReport report =
            system.optimize_link_codebook(book_, o);
        // Interpolated lookups can land in a valley between lattice cells
        // whose optima disagree. Same guard as the deployment codebook
        // path: when the lookup undershoots its prediction, try the
        // nearest cell's compiled best — a bias the offline sweep actually
        // probed — and keep the better. Still sweep-free (<= 3 switches).
        const common::Frequency f = system.config().frequency;
        const codebook::BiasPoint hit = book_.lookup(f, obs.orientation);
        if (report.sweep.best_power.value() <
            hit.predicted_power.value() - o.fine_sweep_threshold.value()) {
          const codebook::BiasPoint& anchor =
              book_.nearest(f, obs.orientation).best;
          control::set_outputs_with_retry(system.supply(), anchor.vx,
                                          anchor.vy, o.retry);
          system.surface().set_bias(system.supply().output_x(),
                                    system.supply().output_y());
          const common::PowerDbm anchored =
              system.expected_measure_with_surface();
          ++report.sweep.probes;
          if (anchored > report.sweep.best_power) {
            report.sweep.best_power = anchored;
            report.sweep.best_vx = anchor.vx;
            report.sweep.best_vy = anchor.vy;
          } else {
            // Anchor lost; put the lookup bias back on the rails.
            control::set_outputs_with_retry(system.supply(),
                                            report.sweep.best_vx,
                                            report.sweep.best_vy, o.retry);
            system.surface().set_bias(system.supply().output_x(),
                                      system.supply().output_y());
          }
        }
        action.retuned = true;
        action.probes = report.sweep.probes;
        return report.sweep.best_power;
      }
      case Level::kRefine: {
        core::CodebookLinkOptions o = options_.lookup;
        o.enable_fine_sweep = true;
        // This rung exists because the prediction already deviated; sweep
        // whenever the lookup undershoots at all.
        o.fine_sweep_threshold = common::GainDb{0.0};
        o.threads = options_.threads;
        const control::OptimizationReport report =
            system.optimize_link_codebook(book_, o);
        action.retuned = true;
        action.probes = report.sweep.probes;
        return report.sweep.best_power;
      }
      case Level::kResweep: {
        const control::OptimizationReport report =
            controller_->optimize(track::expected_probe(system),
                                  system.make_grid_probe(options_.threads));
        action.retuned = true;
        action.probes = report.sweep.probes;
        return report.sweep.best_power;
      }
      case Level::kDirectOnly:
        break;  // no retuning at the bottom rung
    }
  } catch (const control::SupplySwitchError&) {
    // Exhausted bounded retries: the supply ate the retune. The attempts
    // and backoff already landed on the supply clock (the loop charges them
    // to this tick), so just report the failed attempt.
    return std::nullopt;
  }
  return std::nullopt;
}

track::PolicyAction ResilientPolicy::on_tick(
    core::LlamaSystem& system, const track::TickObservation& obs) {
  if (!controller_.has_value())
    throw std::logic_error{"ResilientPolicy: on_tick before bind"};
  track::PolicyAction action;

  if (level_ == Level::kDirectOnly) {
    if (obs.t_s + 1e-12 < direct_until_s_) return action;
    // Holdoff expired: probe the codebook path again from the bottom rung
    // (the surface may have come back).
    level_ = Level::kCodebook;
    deviation_streak_ = 0;
    last_achieved_.reset();
    next_due_s_ = obs.t_s;
  }

  bool due = obs.t_s + 1e-12 >= next_due_s_;
  // Fade trigger between periodic expiries — but only on a real
  // measurement; a dropped tick's stale reading is not evidence of a fade.
  if (!due && obs.measurement_valid && last_achieved_.has_value() &&
      obs.measured < *last_achieved_ - options_.fade_threshold)
    due = true;
  if (!due) return action;
  next_due_s_ = obs.t_s + options_.period_s;

  const std::optional<common::PowerDbm> achieved =
      retune(system, obs, action);
  if (!achieved.has_value()) {
    escalate(obs);
    return action;
  }
  last_achieved_ = *achieved;

  // The codebook's interpolated prediction is the healthy-plant
  // expectation at this orientation — the reference every rung is judged
  // against.
  const codebook::BiasPoint hit =
      book_.lookup(system.config().frequency, obs.orientation);
  const bool met = achieved->value() >=
                   hit.predicted_power.value() -
                       options_.deviation_threshold.value();
  if (met) {
    // Plant behaves like the codebook again: drop straight to the fast
    // path.
    deviation_streak_ = 0;
    level_ = Level::kCodebook;
  } else {
    escalate(obs);
  }
  return action;
}

}  // namespace llama::fault
