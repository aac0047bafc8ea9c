// Search-algorithm ablation: the paper's coarse-to-fine sweep (Algorithm 1)
// against random search, hill climbing and simulated annealing on the real
// simulated bias landscape, all at the same 50-probe budget.
#include <iostream>

#include "src/common/table.h"
#include "src/control/search.h"
#include "src/core/scenarios.h"

using namespace llama;

int main() {
  common::Table table{
      "Search ablation: best power found at a 50-probe budget (42 cm link)"};
  table.set_columns({"algo_id", "probes", "time_s", "best_dbm"});
  table.add_note("algo 1 = Algorithm 1 (N=2,T=5); 2 = random; "
                 "3 = hill climb; 4 = simulated annealing");
  table.add_note("measurement models differ: 1-2 use the batched "
                 "expected-power probe (noise-free); 3-4 sample IQ windows "
                 "with interference (cached responses)");

  // Algorithm 1, on the batched grid path (each iteration's TxT window is
  // one grid-probe call).
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    control::PowerSupply psu;
    control::CoarseToFineSweep sweep{psu, {}};
    const auto r = sweep.run(sys.make_grid_probe());
    table.add_row({1.0, static_cast<double>(r.probes), r.time_cost_s,
                   r.best_power.value()});
  }
  // Random search: probe locations are known up front, so it batches too.
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    control::PowerSupply psu;
    control::RandomSearch search{psu, {}, common::Rng{99}};
    const auto r = search.run(sys.make_batch_probe());
    table.add_row({2.0, static_cast<double>(r.probes), r.time_cost_s,
                   r.best_power.value()});
  }
  // Hill climb: inherently sequential; rides the response cache instead.
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    sys.enable_fast_probes();
    control::PowerSupply psu;
    control::HillClimb climb{psu, {}};
    const auto r = climb.run(sys.make_probe(0.01));
    table.add_row({3.0, static_cast<double>(r.probes), r.time_cost_s,
                   r.best_power.value()});
  }
  // Simulated annealing: sequential as well, cached point probes.
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    sys.enable_fast_probes();
    control::PowerSupply psu;
    control::SimulatedAnnealing sa{psu, {}, common::Rng{7}};
    const auto r = sa.run(sys.make_probe(0.01));
    table.add_row({4.0, static_cast<double>(r.probes), r.time_cost_s,
                   r.best_power.value()});
  }
  table.print(std::cout);
  return 0;
}
