// LlamaSystem — the end-to-end system of paper Figure 5: endpoints, the
// metasurface deployed in the environment, the programmable power supply,
// and the centralized controller, wired over a simulated radio channel.
//
// This is the primary public entry point of the library. A typical use:
//
//   auto system = core::LlamaSystem(core::SystemConfig{...});
//   auto report = system.optimize_link();   // runs paper Algorithm 1
//   auto gain = system.improvement();       // dB over the no-surface link
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/channel/capacity.h"
#include "src/channel/propagation_scene.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/units.h"
#include "src/control/controller.h"
#include "src/control/power_supply.h"
#include "src/control/rotation_estimator.h"
#include "src/control/search.h"
#include "src/metasurface/metasurface.h"
#include "src/radio/transceiver.h"

namespace llama::codebook {
class Codebook;
}  // namespace llama::codebook

namespace llama::core {

/// Options for the codebook fast path (optimize_link_codebook).
struct CodebookLinkOptions {
  /// Bounded-backoff retry for transient supply switch failures (src/fault
  /// injection); free on a healthy supply.
  control::SupplyRetryOptions retry{};
  /// The local fine sweep triggers when the measured power falls short of
  /// the codebook's interpolated prediction by more than this — the signal
  /// that the device sits between lattice cells whose optima differ, or
  /// that the plant drifted within the hashed configuration.
  common::GainDb fine_sweep_threshold{1.0};
  /// Disable to make the path a pure lookup (one supply switch, no probes).
  bool enable_fine_sweep = true;
  /// Grid points per axis of the fine sweep over the codebook cell's
  /// refinement window.
  int fine_steps_per_axis = 5;
  /// Worker threads for the fine sweep's batched grid (<= 0 default).
  int threads = 0;
};

/// Everything needed to stand up an experiment.
struct SystemConfig {
  /// Carrier frequency (paper default: 2.44 GHz).
  common::Frequency frequency = common::Frequency::ghz(2.44);
  /// Transmit power (paper USRP default ~0 dBm unless swept).
  common::PowerDbm tx_power{0.0};
  /// Endpoint antennas.
  channel::Antenna tx_antenna =
      channel::Antenna::directional_10dbi(common::Angle::degrees(0.0));
  channel::Antenna rx_antenna =
      channel::Antenna::directional_10dbi(common::Angle::degrees(90.0));
  /// Deployment geometry (mode + distances).
  channel::LinkGeometry geometry{};
  /// Propagation environment.
  channel::Environment environment = channel::Environment::absorber_chamber();
  /// Non-home surfaces of the propagation scene (cross-surface leakage,
  /// relay hops). Empty = the classic single-link system. Part of the
  /// codebook-relevant configuration: codebook_config_hash covers it.
  channel::SceneSpec scene{};
  /// Receiver sampling configuration.
  radio::ReceiverConfig receiver{};
  /// Controller sweep options (paper: N = 2, T = 5).
  control::Controller::Options controller{};
  /// RNG seed for the measurement chain.
  std::uint64_t seed = 0x11A0'2021ULL;
};

/// End-to-end LLAMA deployment.
class LlamaSystem {
 public:
  explicit LlamaSystem(SystemConfig config,
                       metasurface::Metasurface surface =
                           metasurface::Metasurface::llama_prototype());

  /// Measured received power with the surface at its current bias.
  [[nodiscard]] common::PowerDbm measure_with_surface(
      double window_s = 0.02);

  /// Measured baseline: surface absent (paper's 30 s averaged baseline,
  /// shortened by the simulator's noise-free averaging).
  [[nodiscard]] common::PowerDbm measure_without_surface(
      double window_s = 0.5);

  /// Expected received power at the current bias: the measurement's mean
  /// with no IQ synthesis, no interference burst and no RNG state consumed
  /// — the point-probe analogue of the batched engine's measurement model.
  [[nodiscard]] common::PowerDbm expected_measure_with_surface();

  /// One Algorithm-1 round (Controller::optimize) under the noisy
  /// measurement model: every probe is one windowed IQ capture through the
  /// receiver, with its sampling noise and interference bursts drawn from
  /// the system's RNG streams. Leaves the surface at the winning bias.
  control::OptimizationReport optimize_link();

  /// The same Algorithm-1 round under the expected-power measurement model:
  /// the baseline is expected_measure_with_surface() and each iteration's
  /// bias window is one make_grid_probe() call through the batched response
  /// engine (no IQ synthesis, no RNG state consumed). Leaves the surface at
  /// the winning bias.
  control::OptimizationReport optimize_link_batched();

  /// Codebook fast path: replaces the Algorithm-1 sweep with one O(1)
  /// lookup of the compiled bias for (frequency, current rx orientation) —
  /// one supply switch instead of N*T^2 — then, when the measured power
  /// deviates from the codebook's prediction past the options' threshold,
  /// refines with a local batched sweep over the cell's top-K neighborhood.
  /// Leaves the surface at the winning bias. Throws std::invalid_argument
  /// when the codebook's surface mode does not match this link and
  /// codebook::CodebookStaleError when its config hash does not match
  /// codebook_config_hash() (the codebook was compiled for different link
  /// parameters).
  control::OptimizationReport optimize_link_codebook(
      const codebook::Codebook& book, const CodebookLinkOptions& options = {});

  /// Outcome of the fallback-aware codebook-file path.
  struct CodebookPathReport {
    control::OptimizationReport report;
    /// True when the persisted codebook loaded, validated and served the
    /// retune; false when the degraded path (full batched Algorithm 1) ran.
    bool used_codebook = false;
    /// Why the codebook was rejected (empty when used_codebook).
    std::string fallback_reason;
  };

  /// Runtime codebook load with a built-in degraded mode: loads `path`,
  /// validates it against the live configuration, and runs
  /// optimize_link_codebook. Any artifact failure — unreadable file,
  /// truncated/corrupt bytes (CodebookFormatError), config-hash staleness
  /// (CodebookStaleError), surface-mode or frequency-coverage mismatch —
  /// falls back to optimize_link_batched() instead of aborting, reporting
  /// which path served and why. Hardware faults (SupplySwitchError) are NOT
  /// swallowed: they concern the plant, not the artifact, and propagate to
  /// the caller's retry/degradation machinery.
  [[nodiscard]] CodebookPathReport optimize_link_codebook_file(
      const std::string& path, const CodebookLinkOptions& options = {});

  /// Hash of this system's live codebook-relevant configuration (transmit
  /// power, geometry, antennas sans rx orientation, environment, receiver).
  /// A codebook is valid for this system iff its header carries this value.
  [[nodiscard]] std::uint64_t codebook_config_hash() const;

  /// Checks a codebook against this system's live state — surface mode
  /// (std::invalid_argument), config hash (codebook::CodebookStaleError)
  /// and frequency coverage (std::out_of_range) — throwing with `who` as
  /// the message prefix. One contract shared by optimize_link_codebook and
  /// the tracking policies' bind-time validation.
  void validate_codebook(const codebook::Codebook& book,
                         const std::string& who) const;

  /// Link-power improvement of the optimized surface over the no-surface
  /// baseline.
  [[nodiscard]] common::GainDb improvement();

  /// Spectral efficiency [bit/s/Hz] with/without the surface at the current
  /// bias (paper's capacity metric).
  [[nodiscard]] double capacity_with_surface();
  [[nodiscard]] double capacity_without_surface();

  /// Runs the Section 3.4 rotation-degree estimation on this deployment.
  [[nodiscard]] control::RotationEstimate estimate_rotation(
      control::RotationEstimator::Options options = {});

  /// Access to the composed parts (benches sweep their parameters).
  [[nodiscard]] metasurface::Metasurface& surface() { return surface_; }
  [[nodiscard]] const metasurface::Metasurface& surface() const {
    return surface_;
  }
  /// The propagation scene carrying this system's link. For a default
  /// (empty SceneSpec) configuration this is the single-surface testbed
  /// link (paper Fig. 14); mutations through it bump the scene revision, so
  /// consumers holding precomputed per-frequency state can detect drift.
  [[nodiscard]] channel::PropagationScene& link() { return scene_; }
  [[nodiscard]] channel::PropagationScene& scene() { return scene_; }
  [[nodiscard]] const channel::PropagationScene& scene() const {
    return scene_;
  }
  [[nodiscard]] control::PowerSupply& supply() { return supply_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Frozen responses of the scene's non-home surfaces (entry i drives
  /// scene surface i + 1): how this device currently hears the
  /// deployment's other programmed surfaces. nullopt = surface absent.
  /// Throws std::invalid_argument when more entries than non-home
  /// surfaces are supplied. Measurements and batched probes compose these
  /// coherently; the no-surface baseline ignores them.
  void set_external_responses(
      std::vector<std::optional<em::JonesMatrix>> responses);
  void clear_external_responses() { external_responses_.clear(); }

  /// Crash/offline fault hook (src/fault): while offline the home surface
  /// contributes nothing to any measurement or batched probe — only the
  /// direct path (and external surfaces) carry signal. Bias programming
  /// still "works" (the dead surface just ignores it), so control paths run
  /// unchanged and simply observe the missing gain.
  void set_surface_online(bool online) { surface_online_ = online; }
  [[nodiscard]] bool surface_online() const { return surface_online_; }

  /// Reconfigures geometry / frequency / power without rebuilding state.
  void set_geometry(const channel::LinkGeometry& g) { scene_.set_geometry(g); }
  void set_frequency(common::Frequency f) { config_.frequency = f; }
  void set_tx_power(common::PowerDbm p) { config_.tx_power = p; }

  /// The probe the controller uses: programs a bias pair on the surface and
  /// measures received power over one supply dwell.
  [[nodiscard]] control::PowerProbe make_probe(double window_s = 0.02);

  /// Batched probe over a whole bias grid: Jones responses are evaluated
  /// through the surface's per-frequency plans (rows parallelized over
  /// `threads` workers; <= 0 picks a default), fed through the link budget,
  /// and reported as the receiver's expected power — no sampling jitter, so
  /// the grid is a pure function of the bias plane and byte-identical for
  /// any thread count. Leaves the surface biased at the grid's last cell,
  /// as a cell-by-cell scan would.
  [[nodiscard]] control::GridPowerProbe make_grid_probe(int threads = 0);

  /// Opt-in: memoizes the surface's response() so sequential searches (hill
  /// climbing, annealing, tracking re-optimizations) stop re-cascading the
  /// stack on revisited bias cells. See ResponseCacheConfig for the
  /// quantization contract.
  void enable_fast_probes(metasurface::ResponseCacheConfig config = {});

 private:
  /// Channel power plus one draw of the environment's bursty interference.
  [[nodiscard]] common::PowerDbm with_interference_burst(
      common::PowerDbm channel_power);

  /// Per-surface response pointers for one scene evaluation: the home
  /// surface at `home`, non-home surfaces from external_responses_.
  [[nodiscard]] std::vector<const em::JonesMatrix*> scene_responses(
      const em::JonesMatrix* home) const;

  /// Channel power with the surface at its current bias (scene coherent
  /// sum, externals included).
  [[nodiscard]] common::PowerDbm channel_power_with_surface() const;

  SystemConfig config_;
  metasurface::Metasurface surface_;
  bool surface_online_ = true;
  channel::PropagationScene scene_;
  /// Memoized rx-independent half of codebook_config_hash, keyed on the
  /// scene's structural revision: per-round device re-orientation (the
  /// tracking/serving hot path) re-mixes only the rx antenna instead of
  /// re-hashing the whole stack and scene topology.
  mutable std::optional<std::pair<std::uint64_t, common::Hasher64>>
      config_hash_prefix_;
  std::vector<std::optional<em::JonesMatrix>> external_responses_;
  control::PowerSupply supply_;
  control::Controller controller_;
  radio::Receiver receiver_;
  common::Rng interference_rng_;
};

}  // namespace llama::core
