// The deployed metasurface: a lattice of rotator unit cells plus the
// physical bookkeeping the paper reports (Section 4): aperture size, unit
// count, varactor count, leakage current and bill-of-materials cost.
//
// A surface answers for one bias pair (response, through the scalar
// planned cascade, the golden reference) or for a whole bias grid
// (response_grid, through the SoA kernels). A grid is the only plane
// shape: an arbitrary bias pair is a 1x1 grid. evaluate_plane, at the end
// of this header, is the one place a plane meets the kernels.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/kernel/jones_kernels.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/response_cache.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::metasurface {

/// Operating mode: wave passes through the surface, or bounces off it.
enum class SurfaceMode { kTransmissive, kReflective };

/// Physical description of the fabricated lattice.
struct LatticeSpec {
  double width_m = 0.48;          ///< paper: 480 mm
  double height_m = 0.48;         ///< paper: 480 mm
  double thickness_m = 5e-3;      ///< paper: 5 mm of PCB
  std::size_t unit_count = 180;   ///< paper: 180 functional units
  std::size_t varactor_count = 720;  ///< paper: 720 diodes
  double leakage_current_a = 15e-9;  ///< paper: 15 nA
  double varactor_unit_cost_usd = 0.50;
  double pcb_cost_usd = 540.0;
};

/// Cost summary per paper Section 4.
struct CostBreakdown {
  double varactors_usd = 0.0;
  double pcb_usd = 0.0;
  double total_usd = 0.0;
  double per_unit_usd = 0.0;
};

/// Stuck bias cells (src/fault): a fraction of the lattice's unit cells no
/// longer follows the shared bias rails and holds a fixed bias pair — a
/// dead varactor driver, a cracked via, a diode stuck at its last charge.
/// The aperture's aggregate response becomes the coherent mixture of the
/// healthy sub-aperture at the commanded bias and the stuck sub-aperture at
/// the stuck bias, which is exactly the measured-vs-predicted deviation the
/// resilient retune path detects.
struct StuckCellFault {
  double fraction = 0.0;  ///< fraction of unit cells stuck, in (0, 1]
  common::Voltage vx{0.0};
  common::Voltage vy{0.0};
};

/// Row-major grid of Jones responses: grid[iy][ix] is the response at
/// (vy_values[iy], vx_values[ix]) — same layout as FullGridSweep::grid_dbm.
using JonesGrid = std::vector<std::vector<em::JonesMatrix>>;

/// A bias voltage clamped to the 0-30 V supply range. A non-finite voltage
/// throws std::invalid_argument "<what> must be finite" (std::clamp would
/// pass NaN straight through), so `what` names the caller and argument.
[[nodiscard]] double checked_bias(double v, const char* what);

/// A programmable polarization-rotating surface.
///
/// The two bias voltages (Vx, Vy) are the only control inputs — matching the
/// paper's prototype, where all unit cells share the two DC bias rails.
///
/// Thread contract: the const queries (response, response_grid,
/// rotation_angle) memoize the per-(frequency, mode) plan and, when enabled,
/// the response cache, so they are not safe to call concurrently on one
/// object. Use one Metasurface per thread (a copy starts with cold memos and
/// answers identically); response_grid parallelizes internally.
class Metasurface {
 public:
  explicit Metasurface(RotatorStack stack, LatticeSpec spec = {});

  // The cached per-frequency plans and the response cache are rebuilt lazily
  // and never shared, so copies start cold but behave identically.
  Metasurface(const Metasurface& other);
  Metasurface& operator=(const Metasurface& other);
  Metasurface(Metasurface&&) noexcept = default;
  Metasurface& operator=(Metasurface&&) noexcept = default;
  ~Metasurface() = default;

  /// Convenience: LLAMA's fabricated design.
  [[nodiscard]] static Metasurface llama_prototype();

  [[nodiscard]] const LatticeSpec& spec() const { return spec_; }
  [[nodiscard]] const RotatorStack& stack() const { return stack_; }

  /// Sets the bias pair; values are clamped to the supply range [0, 30] V.
  /// Throws std::invalid_argument naming the argument when either voltage
  /// is non-finite (NaN would otherwise pass the clamp unchanged).
  void set_bias(common::Voltage vx, common::Voltage vy);
  [[nodiscard]] common::Voltage bias_x() const { return vx_; }
  [[nodiscard]] common::Voltage bias_y() const { return vy_; }

  /// Jones matrix applied to a wave traversing (or reflecting off) the
  /// surface at frequency f under the current bias.
  ///
  /// Evaluated through the memoized per-frequency plan at the exact bias.
  /// With the response cache enabled (opt-in, see enable_response_cache) the
  /// bias pair is first quantized per the cache's contract and the memo is
  /// consulted; misses go through the same plan.
  [[nodiscard]] em::JonesMatrix response(common::Frequency f,
                                         SurfaceMode mode) const;

  /// Opt-in memoization of response() on quantized biases. Re-enabling
  /// replaces the cache.
  void enable_response_cache(ResponseCacheConfig config = {});
  /// Snapshot of the hit/miss/eviction counters; nullopt when the cache is
  /// disabled. A snapshot, not a reference: the live counters are atomics
  /// that keep counting after this returns.
  [[nodiscard]] std::optional<ResponseCacheStats> response_cache_stats() const;

  /// Injects / clears a stuck-cell fault. The aggregate response of every
  /// query (response, response_grid) becomes
  /// (1 - fraction) * response(commanded) + fraction * response(stuck) —
  /// the cache keeps memoizing only the pure healthy responses, so enabling
  /// a fault never poisons it. Throws std::invalid_argument when the
  /// fraction is non-finite or outside (0, 1]; the stuck bias pair is
  /// checked and clamped to the supply range like set_bias.
  void set_stuck_cells(std::optional<StuckCellFault> fault);
  [[nodiscard]] const std::optional<StuckCellFault>& stuck_cells() const {
    return stuck_;
  }

  /// Batched evaluation of a whole bias plane at one frequency: returns
  /// grid[iy][ix] = response at (vx_values[ix], vy_values[iy]); an arbitrary
  /// bias pair is a 1x1 plane. Biases are checked and clamped to the supply
  /// range like set_bias. Evaluation runs through evaluate_plane: the
  /// per-(f, mode) plan is acquired once, axis lanes are built once, and rows
  /// are distributed over `threads` workers (<= 0 picks a default). Every cell is a pure function of
  /// (plan, axes, cell index), so the grid is byte-identical for any thread
  /// count (asserted by ResponseGrid.ThreadCountDoesNotChangeBytes); it
  /// agrees with pointwise response() calls to <= 1e-12 per component — the
  /// kernels reassociate relative to the scalar golden path, so bit-equality
  /// with response() is NOT promised (ResponseGrid.MatchesPointwiseResponses
  /// and the randomized suite in tests/kernel assert the bound). Does not
  /// touch the current bias or the response cache. A stuck-cell fault mixes
  /// into every cell in lane space, so batched sweeps see the same degraded
  /// plane pointwise probes do.
  [[nodiscard]] JonesGrid response_grid(common::Frequency f, SurfaceMode mode,
                                        const std::vector<double>& vx_values,
                                        const std::vector<double>& vy_values,
                                        int threads = 0) const;

  /// Polarization rotation imparted in transmissive mode at frequency f.
  [[nodiscard]] common::Angle rotation_angle(common::Frequency f) const;

  /// DC power drawn from the bias supply: V * I_leak summed over both rails
  /// — nanowatts, the paper's "can work even with one buffer capacitor".
  [[nodiscard]] double dc_power_w() const;

  /// Bill-of-materials summary (paper: $900 prototype, $5 per unit).
  [[nodiscard]] CostBreakdown cost() const;

 private:
  /// Planned response at an explicit (already clamped/quantized) bias pair,
  /// reusing the per-(frequency, mode) plan slots.
  [[nodiscard]] em::JonesMatrix planned_response(common::Frequency f,
                                                SurfaceMode mode,
                                                common::Voltage vx,
                                                common::Voltage vy) const;

  /// Healthy (no-fault) response at the given bias, cache-aware — the body
  /// of response() before fault mixing.
  [[nodiscard]] em::JonesMatrix healthy_response(common::Frequency f,
                                                 SurfaceMode mode) const;

  /// Acquire (building only when the memoized frequency differs) the
  /// per-frequency plan. Hoisted out of the batched loop: response_grid
  /// touches the plan slot exactly once per call and hands the plan to the
  /// kernel by const-ref; the sharded body never sees the mutable slot.
  [[nodiscard]] const RotatorStack::TransmissionPlan& acquire_transmission_plan(
      common::Frequency f) const;
  [[nodiscard]] const RotatorStack::ReflectionPlan& acquire_reflection_plan(
      common::Frequency f) const;

  RotatorStack stack_;
  LatticeSpec spec_;
  common::Voltage vx_{0.0};
  common::Voltage vy_{0.0};
  std::optional<StuckCellFault> stuck_;
  /// Opt-in memo for response(); mutable because caching is invisible to
  /// callers of the const query API.
  mutable std::unique_ptr<ResponseCache> cache_;
  /// Most-recent per-frequency plans, keyed by frequency in Hz.
  mutable std::optional<std::pair<double, RotatorStack::TransmissionPlan>>
      transmission_plan_;
  mutable std::optional<std::pair<double, RotatorStack::ReflectionPlan>>
      reflection_plan_;
};

/// The one place a bias plane meets the SoA kernels (src/kernel), shared by
/// Metasurface::response_grid and deploy::SharedResponseEngine. Builds the
/// kernel for `mode` on the plan that transmission_plan() or
/// reflection_plan() returns (only the one `mode` needs is called), mixes in
/// `blend` when it is non-null, and writes row iy of the already clamped
/// plane vxs x vys to rows[iy], over `threads` workers. Every cell is a pure
/// function of (plan, vx, vy), so its bytes depend neither on the plane's
/// shape nor on the thread count.
template <class TransmissionPlanFn, class ReflectionPlanFn>
void evaluate_plane(const RotatorStack& stack, SurfaceMode mode,
                    TransmissionPlanFn&& transmission_plan,
                    ReflectionPlanFn&& reflection_plan,
                    std::span<const double> vxs, std::span<const double> vys,
                    const kernel::StuckBlend* blend, int threads,
                    std::span<em::JonesMatrix* const> rows) {
  const auto run = [&](auto&& k) {
    if (blend) k.set_blend(*blend);
    // Shard ownership: parallel_for hands each shard a disjoint set of row
    // indices; shard iy writes only rows[iy], the kernel is shared
    // read-only, and eval scratch is call-local.
    common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
      k.eval_grid_row(iy, rows[iy]);
    });
  };
  if (mode == SurfaceMode::kTransmissive)
    run(kernel::TransmissionKernel{stack, transmission_plan(), vxs, vys});
  else
    run(kernel::ReflectionKernel{stack, reflection_plan(), vxs, vys});
}

}  // namespace llama::metasurface
