// Offline bias-codebook compiler: trades one up-front sweep of the whole
// (frequency x device-orientation) response space for O(1) runtime lookups.
//
// The compiled quantity is the received-power bias plane — a pure function
// of (frequency, quantized bias pair, surface mode, link configuration) —
// evaluated through the same batched plan/grid machinery the online sweeps
// use (RotatorStack plans fed to the SoA lane kernels in src/kernel via
// Metasurface::response_grid, rows and lattice cells sharded over
// common::parallel_for, the receiver's expected-power measurement model). Because the Jones response grid does not depend on
// the device orientation, each frequency's grid is evaluated once and
// re-projected through the link budget per orientation, so a full lattice
// compiles in seconds where naive per-cell sweeps would take minutes.
//
// Ranking in linear power: a cell's measured power is
// expected_measure(PowerMw{lin}.to_dbm()), where lin is the clamped mW
// value PropagationScene::received_mw_swept returns, and that chain is
// non-decreasing in lin. So each orientation's plane is filled in mW, s*
// (its (K+1)-th largest value) is selected, and only the cells with
// lin >= s* - (s* + noise_mw + 1e-15) * 1e-9 pay the dBm chain
// (log10, pow, log10). The candidates are then ordered exactly as before
// (measured power descending, scan index breaking ties), so the codebook is
// byte-identical to ranking every cell. Why this is exact: the chain's
// rounding error is ~1e-14 relative to lin + noise_mw, five orders below
// the margin, so every excluded cell measures strictly below each of the
// K+1 cells at or above s*. Cells that tie after rounding (a noise-
// dominated plane, or one where every cell clamps at 1e-15 mW) sit inside
// the margin and keep the scan-order tie-break; the 1e-15 term keeps the
// clamp itself inside the margin.
//
// The resulting Codebook carries a configuration hash (see
// system_config_hash / deployment_config_hash) binding it to the link
// parameters it was compiled for; integrations reject a mismatched hash
// with CodebookStaleError rather than serving stale biases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/channel/propagation_scene.h"
#include "src/codebook/codebook.h"
#include "src/common/serde.h"
#include "src/core/llama_system.h"
#include "src/deploy/deployment_engine.h"

namespace llama::codebook {

/// Most bias-plane cells a compile accepts: 2^20 cells (a 1024 x 1024
/// plane) is 64 MiB of 64-byte JonesMatrix responses per frequency.
inline constexpr std::size_t kMaxBiasPlaneCells = std::size_t{1} << 20;

/// Lattice and bias-grid parameters of a compile run.
struct CompilerOptions {
  /// Frequency axis (inclusive). With n_frequencies == 1 only f_min is used.
  common::Frequency f_min = common::Frequency::ghz(2.44);
  common::Frequency f_max = common::Frequency::ghz(2.44);
  std::size_t n_frequencies = 1;
  /// Device-orientation axis (inclusive). Linear polarization is
  /// pi-periodic, so [0, 180] deg covers every orientation.
  common::Angle orientation_min = common::Angle::degrees(0.0);
  common::Angle orientation_max = common::Angle::degrees(180.0);
  std::size_t n_orientations = 37;  ///< 5 deg lattice pitch by default
  /// Exact-step axes: when set, the axis lattice is generated with
  /// common::stepped_range(min, max, step) — the same index-based grid the
  /// online sweeps use, immune to float-accumulation aliasing — and the
  /// count/upper edge above are derived from the realized grid instead of
  /// being trusted. A 0.1 deg step over [0, 180] yields exactly 1801
  /// cells, never an aliased 1800/1802.
  std::optional<double> f_step_hz;
  std::optional<common::Angle> orientation_step;
  /// Bias plane scanned per lattice cell (the paper's 0-30 V supply range
  /// at the full-scan pitch of Figs. 15/21).
  common::Voltage v_min{0.0};
  common::Voltage v_max{30.0};
  common::Voltage v_step{1.0};
  /// Runner-up cells recorded per lattice cell (the fine-sweep fallback's
  /// refinement neighborhood). Clamped to the bias grid size and the
  /// format's kMaxTopK.
  std::size_t top_k = 5;
  /// Worker threads for the response-grid rows and the orientation shard
  /// (<= 0 picks the default). Results are byte-identical for any value.
  int threads = 0;

  /// Throws std::invalid_argument naming the field unless: frequencies and
  /// steps are finite and positive; orientation bounds are finite; each
  /// axis is non-empty (max >= min for a stepped axis, max > min for a
  /// count-based axis of more than one point); v_min <= v_max within the
  /// supply's [0, 30] V; every step leaves its axis fewer points than
  /// common::stepped_range accepts; and v_step leaves the bias plane at
  /// most kMaxBiasPlaneCells cells.
  void validate() const;
};

/// Hash of the compile-relevant link parameters. The receive antenna's
/// polarization orientation is deliberately excluded — it is the codebook's
/// query axis, not part of the configuration — while everything else that
/// shapes the power landscape (geometry, antennas, environment, receiver
/// chain, transmit power, the metasurface stack design whose responses
/// were compiled, and the propagation-scene topology the link is embedded
/// in) is mixed in. A codebook compiled for one scene topology — a
/// different leakage ring, an added relay hop — must never validate
/// against another.
[[nodiscard]] std::uint64_t link_config_hash(
    common::PowerDbm tx_power, const channel::LinkGeometry& geometry,
    const channel::Antenna& tx_antenna, const channel::Antenna& rx_antenna,
    const channel::Environment& environment,
    const radio::ReceiverConfig& receiver,
    const metasurface::RotatorStack& stack,
    const channel::SceneSpec& scene = {});

/// The expensive, rx-antenna-independent part of link_config_hash: the
/// stack design, scene topology, environment rays and receiver chain are
/// mixed here; the hasher state is a trivially copyable 8-byte value.
/// Serving paths that validate a codebook per round memoize this prefix
/// (keyed on PropagationScene::structural_revision) and pay only
/// finish_link_config_hash per call — the rx antenna is the one input that
/// changes as a tracked device moves.
[[nodiscard]] common::Hasher64 link_config_prefix(
    common::PowerDbm tx_power, const channel::LinkGeometry& geometry,
    const channel::Antenna& tx_antenna,
    const channel::Environment& environment,
    const radio::ReceiverConfig& receiver,
    const metasurface::RotatorStack& stack,
    const channel::SceneSpec& scene = {});

/// Completes a link_config_prefix into the full config hash by mixing the
/// rx antenna (orientation excluded — it is the codebook's query axis).
/// finish_link_config_hash(link_config_prefix(...), rx) ==
/// link_config_hash(..., rx, ...), by construction.
[[nodiscard]] std::uint64_t finish_link_config_hash(
    common::Hasher64 prefix, const channel::Antenna& rx_antenna);

/// link_config_hash over a LlamaSystem configuration. `stack` must be the
/// surface the codebook is compiled for / used with; it defaults to the
/// fabricated prototype design, matching Metasurface::llama_prototype()
/// and DeploymentEngine's default.
[[nodiscard]] std::uint64_t system_config_hash(
    const core::SystemConfig& cfg,
    const metasurface::RotatorStack& stack = metasurface::prototype_fr4_design());

/// link_config_hash over a deployment configuration. A codebook compiled
/// from the mirrored SystemConfig (same antennas/geometry/environment/
/// receiver/power/stack) hashes identically, so one codebook serves both
/// paths.
[[nodiscard]] std::uint64_t deployment_config_hash(
    const deploy::DeploymentConfig& cfg,
    const metasurface::RotatorStack& stack = metasurface::prototype_fr4_design());

class CodebookCompiler {
 public:
  explicit CodebookCompiler(core::SystemConfig config,
                            metasurface::Metasurface surface =
                                metasurface::Metasurface::llama_prototype());

  /// Compiles the codebook: per frequency, one batched Jones grid over the
  /// bias plane; per (frequency, orientation) cell, the arg-max bias pair
  /// (scan-order tie-breaking, matching FullGridSweep) plus the top-K
  /// runner-ups. Deterministic: byte-identical cells for any thread count.
  /// Runs options.validate() before any work.
  [[nodiscard]] Codebook compile(const CompilerOptions& options = {}) const;

  [[nodiscard]] const core::SystemConfig& config() const { return config_; }

 private:
  core::SystemConfig config_;
  metasurface::Metasurface surface_;
};

}  // namespace llama::codebook
