// Alternative bias-search strategies, used as ablation baselines against
// the paper's Algorithm 1 (sweep.h). Every search costs one supply switch
// per probe, so search quality and wall-clock cost are directly comparable.
// Each runs over a pointwise PowerProbe; a grid probe serves them one 1x1
// window per probe.
#pragma once

#include "src/common/rng.h"
#include "src/control/sweep.h"

namespace llama::control {

/// Uniform random probing with a fixed budget — the no-structure baseline.
class RandomSearch {
 public:
  struct Options {
    int probes = 50;  ///< match Algorithm 1's N*T^2 budget by default
    common::Voltage v_min{0.0};
    common::Voltage v_max{30.0};
  };

  /// Throws std::invalid_argument on a zero budget or a bad range
  /// (validate_search_range).
  RandomSearch(PowerSupply& supply, Options options, common::Rng rng);

  /// Draws each probe location (vx then vy) and measures it, in draw
  /// order. The first draw seeds the winner at -inf, so the result is
  /// always a probed bias.
  [[nodiscard]] SweepResult run(const PowerProbe& probe);

 private:
  PowerSupply& supply_;
  Options options_;
  common::Rng rng_;
};

/// Coordinate hill climbing: alternate axes, step toward improvement,
/// halve the step on failure. Cheap but can stall on ridges of the power
/// landscape (the bias map's diagonal valleys, cf. Fig. 15 heatmaps).
class HillClimb {
 public:
  struct Options {
    int max_probes = 50;
    common::Voltage initial_step{8.0};
    common::Voltage min_step{0.5};
    common::Voltage v_min{0.0};
    common::Voltage v_max{30.0};
    common::Voltage start_x{15.0};
    common::Voltage start_y{15.0};
  };

  /// Throws std::invalid_argument on a zero budget, a non-positive step or
  /// a bad range (validate_search_range).
  HillClimb(PowerSupply& supply, Options options);

  [[nodiscard]] SweepResult run(const PowerProbe& probe);

 private:
  PowerSupply& supply_;
  Options options_;
};

/// Simulated annealing over the bias plane.
class SimulatedAnnealing {
 public:
  struct Options {
    int max_probes = 50;
    double initial_temperature_db = 6.0;  ///< accept ~6 dB uphill initially
    double cooling = 0.92;                ///< per-probe temperature factor
    common::Voltage step{6.0};
    common::Voltage v_min{0.0};
    common::Voltage v_max{30.0};
  };

  /// Throws std::invalid_argument on a zero budget, cooling outside (0, 1),
  /// a non-positive step or a bad range (validate_search_range).
  SimulatedAnnealing(PowerSupply& supply, Options options, common::Rng rng);

  [[nodiscard]] SweepResult run(const PowerProbe& probe);

 private:
  PowerSupply& supply_;
  Options options_;
  common::Rng rng_;
};

}  // namespace llama::control
