// Fig. 21 — Reflective-scenario heatmaps: received power over the (Vx, Vy)
// grid for Tx-surface distances 24-66 cm (endpoints on the same side).
// Paper: the surface changes reflected power with bias, but the contrast is
// much smaller than in the transmissive case (rotation cancels on the
// round trip).
#include <iostream>

#include "src/common/table.h"
#include "src/core/scenarios.h"

using namespace llama;

int main() {
  common::Table contrast{
      "Fig. 21 summary: bias-induced power contrast per distance"};
  contrast.set_columns({"dist_cm", "max_dbm", "min_dbm", "contrast_db"});
  for (double cm = 24.0; cm <= 66.0; cm += 6.0) {
    core::LlamaSystem sys{core::reflective_mismatch_config(cm / 100.0)};
    control::PowerSupply supply;
    control::FullGridSweep::Options opt;
    opt.step = common::Voltage{3.0};
    control::FullGridSweep sweep{supply, opt};
    // Batched path: the reflection plan's forward cascade is reused across
    // the whole grid (the reflective mode re-solves only the tunable BFS
    // boards' S11 per cell).
    const auto result = sweep.run(sys.make_grid_probe());
    common::print_ascii_heatmap(
        std::cout,
        "Fig. 21: reflective power heatmap (dBm), Tx-surface = " +
            std::to_string(static_cast<int>(cm)) + " cm (rows Vy, cols Vx)",
        sweep.vy_values(), sweep.vx_values(), sweep.grid_dbm());
    double lo = 1e9;
    double hi = -1e9;
    for (const auto& row : sweep.grid_dbm())
      for (double v : row) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    contrast.add_row({cm, hi, lo, hi - lo});
    (void)result;
  }
  contrast.add_note(
      "paper: contrast much smaller than transmissive (compare Fig. 15)");
  contrast.print(std::cout);
  return 0;
}
