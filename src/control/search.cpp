#include "src/control/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/math_utils.h"

namespace llama::control {

namespace {

common::Voltage clamp_v(double v, const common::Voltage& lo,
                        const common::Voltage& hi) {
  return common::Voltage{common::clamp(v, lo.value(), hi.value())};
}

}  // namespace

RandomSearch::RandomSearch(PowerSupply& supply, Options options,
                           common::Rng rng)
    : supply_(supply), options_(options), rng_(rng) {
  if (options_.probes < 1)
    throw std::invalid_argument{"RandomSearch: need at least one probe"};
  validate_search_range("RandomSearch", options_.v_min, options_.v_max,
                        supply_);
}

SweepResult RandomSearch::run(const PowerProbe& probe) {
  const double t0 = supply_.elapsed_s();
  SweepResult result;
  common::PowerDbm best{-std::numeric_limits<double>::infinity()};
  for (int i = 0; i < options_.probes; ++i) {
    const common::Voltage vx{
        rng_.uniform(options_.v_min.value(), options_.v_max.value())};
    const common::Voltage vy{
        rng_.uniform(options_.v_min.value(), options_.v_max.value())};
    supply_.set_outputs(vx, vy);
    ++result.probes;
    const common::PowerDbm p = probe(vx, vy);
    // The first draw seeds the winner (as in CoarseToFineSweep): a run whose
    // every reading is arbitrarily low, or NaN, still reports a probed bias.
    if (i == 0 || p > best) {
      result.best_vx = vx;
      result.best_vy = vy;
    }
    if (p > best) best = p;
  }
  result.best_power = best;
  result.time_cost_s = supply_.elapsed_s() - t0;
  return result;
}

HillClimb::HillClimb(PowerSupply& supply, Options options)
    : supply_(supply), options_(options) {
  if (options_.max_probes < 1)
    throw std::invalid_argument{"HillClimb: need at least one probe"};
  if (options_.initial_step.value() <= 0.0)
    throw std::invalid_argument{"HillClimb: step must be positive"};
  validate_search_range("HillClimb", options_.v_min, options_.v_max, supply_);
}

SweepResult HillClimb::run(const PowerProbe& probe) {
  const double t0 = supply_.elapsed_s();
  SweepResult result;
  double x = options_.start_x.value();
  double y = options_.start_y.value();
  double step = options_.initial_step.value();

  auto measure = [&](double vx, double vy) {
    const common::Voltage cx = clamp_v(vx, options_.v_min, options_.v_max);
    const common::Voltage cy = clamp_v(vy, options_.v_min, options_.v_max);
    supply_.set_outputs(cx, cy);
    ++result.probes;
    return probe(cx, cy);
  };

  common::PowerDbm current = measure(x, y);
  result.best_power = current;
  result.best_vx = clamp_v(x, options_.v_min, options_.v_max);
  result.best_vy = clamp_v(y, options_.v_min, options_.v_max);

  const double dirs[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  while (result.probes < options_.max_probes &&
         step >= options_.min_step.value()) {
    bool improved = false;
    for (const auto& d : dirs) {
      if (result.probes >= options_.max_probes) break;
      const double nx = common::clamp(x + d[0] * step, options_.v_min.value(),
                                      options_.v_max.value());
      const double ny = common::clamp(y + d[1] * step, options_.v_min.value(),
                                      options_.v_max.value());
      const common::PowerDbm p = measure(nx, ny);
      if (p > current) {
        current = p;
        x = nx;
        y = ny;
        improved = true;
        if (p > result.best_power) {
          result.best_power = p;
          result.best_vx = common::Voltage{nx};
          result.best_vy = common::Voltage{ny};
        }
        break;
      }
    }
    if (!improved) step /= 2.0;
  }
  result.time_cost_s = supply_.elapsed_s() - t0;
  return result;
}

SimulatedAnnealing::SimulatedAnnealing(PowerSupply& supply, Options options,
                                       common::Rng rng)
    : supply_(supply), options_(options), rng_(rng) {
  if (options_.max_probes < 1)
    throw std::invalid_argument{"SimulatedAnnealing: need >= 1 probe"};
  if (options_.cooling <= 0.0 || options_.cooling >= 1.0)
    throw std::invalid_argument{"SimulatedAnnealing: cooling must be (0,1)"};
  if (!(options_.step.value() > 0.0) || !std::isfinite(options_.step.value()))
    throw std::invalid_argument{"SimulatedAnnealing: step must be positive"};
  validate_search_range("SimulatedAnnealing", options_.v_min, options_.v_max,
                        supply_);
}

SweepResult SimulatedAnnealing::run(const PowerProbe& probe) {
  const double t0 = supply_.elapsed_s();
  SweepResult result;
  double x = rng_.uniform(options_.v_min.value(), options_.v_max.value());
  double y = rng_.uniform(options_.v_min.value(), options_.v_max.value());
  double temperature = options_.initial_temperature_db;

  auto measure = [&](double vx, double vy) {
    const common::Voltage cx = clamp_v(vx, options_.v_min, options_.v_max);
    const common::Voltage cy = clamp_v(vy, options_.v_min, options_.v_max);
    supply_.set_outputs(cx, cy);
    ++result.probes;
    return probe(cx, cy);
  };

  common::PowerDbm current = measure(x, y);
  result.best_power = current;
  result.best_vx = clamp_v(x, options_.v_min, options_.v_max);
  result.best_vy = clamp_v(y, options_.v_min, options_.v_max);

  while (result.probes < options_.max_probes) {
    const double nx =
        x + rng_.gaussian(0.0, options_.step.value());
    const double ny =
        y + rng_.gaussian(0.0, options_.step.value());
    const common::PowerDbm p = measure(nx, ny);
    const double delta_db = p.value() - current.value();
    const bool accept =
        delta_db >= 0.0 ||
        rng_.uniform(0.0, 1.0) <
            std::exp(delta_db / std::max(temperature, 1e-3));
    if (accept) {
      current = p;
      x = common::clamp(nx, options_.v_min.value(), options_.v_max.value());
      y = common::clamp(ny, options_.v_min.value(), options_.v_max.value());
      if (p > result.best_power) {
        result.best_power = p;
        result.best_vx = common::Voltage{x};
        result.best_vy = common::Voltage{y};
      }
    }
    temperature *= options_.cooling;
  }
  result.time_cost_s = supply_.elapsed_s() - t0;
  return result;
}

}  // namespace llama::control
