// Algorithm 1 ablation — coarse-to-fine bias sweep vs the exhaustive scan.
// Paper Section 3.3: a full 1 V-step scan takes ~30 s ("prevents real-time
// applications"); the coarse-to-fine sweep costs 0.02 x N x T^2 s with
// N = 2, T = 5 (1 s). This bench sweeps (N, T) and reports search time and
// the power found on the real simulated plant.
#include <iostream>

#include "src/common/table.h"
#include "src/core/scenarios.h"

using namespace llama;

int main() {
  common::Table table{"Algorithm 1: sweep-parameter ablation (42 cm link)"};
  table.set_columns({"iters_N", "steps_T", "probes", "time_s",
                     "best_dbm", "gap_to_full_db"});

  // Reference: the exhaustive 1 V grid, evaluated through the batched
  // response engine (961 probes in one grid call).
  core::LlamaSystem ref_sys{core::transmissive_mismatch_config()};
  control::PowerSupply ref_supply;
  control::FullGridSweep full{ref_supply, {}};
  const auto full_result = full.run(ref_sys.make_grid_probe());

  for (int n : {1, 2, 3}) {
    for (int t : {3, 5, 8}) {
      core::LlamaSystem sys{core::transmissive_mismatch_config()};
      control::PowerSupply supply;
      control::CoarseToFineSweep::Options opt;
      opt.iterations = n;
      opt.steps_per_axis = t;
      control::CoarseToFineSweep sweep{supply, opt};
      const auto r = sweep.run(sys.make_grid_probe());
      table.add_row({static_cast<double>(n), static_cast<double>(t),
                     static_cast<double>(r.probes), r.time_cost_s,
                     r.best_power.value(),
                     full_result.best_power.value() - r.best_power.value()});
    }
  }
  table.add_note("full 1 V-step scan: " +
                 std::to_string(full_result.probes) + " probes, " +
                 std::to_string(full_result.time_cost_s) +
                 " s switching, best = " +
                 std::to_string(full_result.best_power.value()) + " dBm");
  table.add_note("paper operating point: N=2, T=5 (1 s of switching)");
  table.print(std::cout);
  return 0;
}
