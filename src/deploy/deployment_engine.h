// Multi-surface dense-deployment engine (paper Section 7 outlook at scale):
// one controller time-shares bias states across M metasurfaces serving N
// IoT devices.
//
// Two pieces:
//
//  - SharedResponseEngine: a thread-safe response-plan registry plus one
//    shared ResponseCache for every link at a given frequency. The plan is
//    built once per (frequency, mode); every value the engine computes
//    goes through the SoA kernels (src/kernel) built on that plan — a cold
//    window costs nx + ny axis solves plus a per-cell cascade, not nx * ny
//    scalar cascades. The LRU stays as the hit path: the coarse first
//    Algorithm-1 window is the same 0-30 V grid for every device, so all
//    but the first device hit, and an all-hit window is cheaper than any
//    kernel build.
//
//  - DeploymentEngine: shards the per-device Algorithm-1 optimizations (or
//    codebook lookups) over link_fleet's partition groups, then feeds each
//    surface's per-device optima into PolarizationScheduler and reports
//    aggregate spectral efficiency and BER under the schedule.
//
// Thread-safety / determinism contract: the registry and cache are
// mutex-protected. Every computed value is a kernel cell, which is a pure
// function of (plan, quantized vx, quantized vy) — independent of the
// window's shape and of the cell's position in it — so a cached value and
// a fresh one agree byte for byte, concurrent misses that race on one key
// compute identical matrices, and the engine's results are byte-identical
// for any thread count. So are its hit/miss counts: a key counts one miss
// when it is first published and a hit on every other lookup (see
// ResponseCacheStats). Only the work varies — two shards that miss one key
// at once both evaluate it. Against the scalar planned path (the golden
// reference) the engine agrees to <= 1e-12 per component, the kernels'
// contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/channel/propagation_scene.h"
#include "src/channel/spatial_index.h"
#include "src/common/units.h"
#include "src/control/scheduler.h"
#include "src/control/sweep.h"
#include "src/metasurface/metasurface.h"
#include "src/radio/transceiver.h"

namespace llama::codebook {
class Codebook;
}  // namespace llama::codebook

namespace llama::deploy {

/// std::mutex with a contention tally: a lock() that cannot acquire
/// immediately counts one contended acquisition before blocking. The tally
/// is a monotone stats counter read through snapshots (never a
/// synchronization input), so relaxed ordering is exactly right — the lock
/// itself provides every happens-before edge the protected state needs.
/// Satisfies Lockable, so std::lock_guard/std::unique_lock work unchanged.
class CountedMutex {
 public:
  void lock() {
    if (mutex_.try_lock()) return;
    // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
    contended_.fetch_add(1, std::memory_order_relaxed);
    mutex_.lock();
  }
  void unlock() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() { return mutex_.try_lock(); }

  /// Contended acquisitions since construction.
  [[nodiscard]] std::uint64_t contended() const {
    // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::atomic<std::uint64_t> contended_{0};
};

/// Thread-safe shared plan registry + response memo for one stack design.
/// All M surfaces of a deployment are the same fabricated hardware, so one
/// engine serves every link regardless of which surface carries it.
class SharedResponseEngine {
 public:
  explicit SharedResponseEngine(metasurface::RotatorStack stack,
                                metasurface::ResponseCacheConfig cache = {});

  /// Cached response at a bias pair (clamped to the 0-30 V supply range,
  /// then quantized per the cache contract): a 1x1 window through the same
  /// body as response_grid, so it has the bytes response_grid computes for
  /// that key. Safe to call from many threads; the returned matrix is a
  /// pure function of (frequency, quantized bias, mode). Throws
  /// std::invalid_argument when vx or vy is not finite.
  [[nodiscard]] em::JonesMatrix response(common::Frequency f,
                                         metasurface::SurfaceMode mode,
                                         common::Voltage vx,
                                         common::Voltage vy);

  /// Batched variant over a whole bias window: grid[iy][ix] is the response
  /// at (vxs[ix], vys[iy]), byte-equal to pointwise response() calls. The
  /// memo is consulted and refilled with two lock acquisitions for the
  /// entire window (not two per cell), which is what lets many device
  /// shards probe concurrently without serializing on the cache mutex.
  /// Throws std::invalid_argument when any bias is not finite.
  [[nodiscard]] metasurface::JonesGrid response_grid(
      common::Frequency f, metasurface::SurfaceMode mode,
      const std::vector<double>& vxs, const std::vector<double>& vys);

  /// Number of distinct (frequency, mode) plans built so far.
  [[nodiscard]] std::size_t plan_count() const;
  /// Snapshot of the shared cache's hit/miss/eviction counters plus the
  /// engine's lock_contention tally (contended acquisitions of the plan
  /// and cache mutexes combined). Lock-free: safe to poll from a monitor
  /// while device shards are inside the two-lock window path.
  [[nodiscard]] metasurface::ResponseCacheStats cache_stats() const;

  [[nodiscard]] const metasurface::RotatorStack& stack() const {
    return stack_;
  }

 private:
  /// Get-or-build the shared plan for a frequency (mutex-protected). Plans
  /// are never dropped and std::map nodes never move, so the reference
  /// stays valid, and immutable, for the engine's lifetime.
  [[nodiscard]] const metasurface::RotatorStack::TransmissionPlan&
  transmission_plan(common::Frequency f);
  [[nodiscard]] const metasurface::RotatorStack::ReflectionPlan&
  reflection_plan(common::Frequency f);

  /// The one body behind response() and response_grid(), over the clamped,
  /// quantized window vxq x vyq; row iy lands in rows[iy]. One lock looks
  /// every cell up. If any missed, one kernel evaluates the whole window
  /// outside any lock (hit cells recompute to their cached bytes) and a
  /// second lock publishes the misses.
  void lookup_window(common::Frequency f, metasurface::SurfaceMode mode,
                     std::span<const double> vxq, std::span<const double> vyq,
                     std::span<em::JonesMatrix* const> rows);

  const metasurface::RotatorStack stack_;
  mutable CountedMutex plan_mutex_;
  std::map<double, metasurface::RotatorStack::TransmissionPlan>
      transmission_plans_;
  std::map<double, metasurface::RotatorStack::ReflectionPlan>
      reflection_plans_;
  mutable CountedMutex cache_mutex_;
  metasurface::ResponseCache cache_;
};

/// Cross-surface interference model. When leakage is enabled every
/// non-serving surface of the deployment appears in each device's
/// propagation scene as a leakage path: the device's per-link SINR then
/// includes the power the other surfaces' scattered lobes deposit at its
/// receiver. Surfaces are modeled at a common lateral spacing from every
/// device they do not serve (symmetric ring placement), so the scene
/// topology — and therefore the codebook configuration hash — is identical
/// for every device of the fleet.
struct InterferenceModel {
  bool enable_leakage = false;
  /// Effective lateral offset of a non-serving surface [m].
  double surface_spacing_m = 0.4;
  /// Amplitude coupling of a leakage path (an unserved surface's lobe is
  /// not steered at this device).
  double leakage_coupling = 0.15;
};

/// Scene topology of one deployment device: (n_surfaces - 1) leakage
/// surfaces at the interference model's spacing/coupling when leakage is
/// enabled, empty otherwise. One source of truth shared by the engine's
/// run paths, core::device_system_config and the codebook config hash.
[[nodiscard]] channel::SceneSpec device_scene_spec(
    std::size_t n_surfaces, const InterferenceModel& interference);

/// One served endpoint of a deployment.
struct DeviceSpec {
  std::string name;
  /// Mounting orientation of the device's antenna (applied to the config's
  /// rx antenna template).
  common::Angle orientation = common::Angle::degrees(0.0);
  double traffic_weight = 1.0;  ///< relative airtime demand
  /// Surface this device is served by; -1 assigns round-robin by index
  /// (or, in a city deployment with a surface layout, nearest-surface).
  int surface = -1;
  /// Device position on the deployment plane; required by the city-scale
  /// path (CityFleetEngine / a FleetTracker with a layout), ignored by the
  /// ring-model paths.
  std::optional<channel::Point2> position;
};

/// Deployment-wide parameters shared by every link.
struct DeploymentConfig {
  std::size_t n_surfaces = 1;
  common::Frequency frequency = common::Frequency::ghz(2.44);
  common::PowerDbm tx_power{14.0};
  /// Link geometry template (mode + distances), identical per link.
  channel::LinkGeometry geometry{};
  channel::Environment environment = channel::Environment::absorber_chamber();
  /// AP-side antenna, shared; and the device-side template re-oriented per
  /// DeviceSpec::orientation.
  channel::Antenna tx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  channel::Antenna rx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  radio::ReceiverConfig receiver{};
  /// Noise+interference level against which the aggregate capacity/BER are
  /// reported (default: the busy-building level of the paper's IoT
  /// evaluation, which keeps links rate-sensitive; the receiver's thermal
  /// floor is reported separately in DeploymentReport::noise_floor).
  common::PowerDbm rate_noise{-62.0};
  /// Cross-surface leakage (scene topology of every device's link).
  InterferenceModel interference{};
  /// City-scale surface placement. Empty (the default) is the trivial
  /// layout: partition_fleet serves round-robin with the ring scene. Non-
  /// empty (positions.size() == n_surfaces) makes partition_fleet, and so
  /// CityFleetEngine and FleetTracker, use the spatial index: nearest-
  /// surface serving, per-device geometry from real mount positions,
  /// build-time leakage pruning at layout.prune.cutoff_db, and device
  /// loops sharded by spatial cell. DeploymentEngine runs the ring model
  /// only and rejects a non-empty layout at construction.
  channel::SurfaceLayout layout{};
  /// Per-device Algorithm 1 parameters (paper: N = 2, T = 5).
  control::CoarseToFineSweep::Options sweep{};
  control::PolarizationScheduler::Options scheduler{};
  metasurface::ResponseCacheConfig cache{};
  /// Worker threads for the per-device optimization shard (<= 0 default).
  int threads = 0;

  /// Throws std::invalid_argument naming the field on n_surfaces == 0, a
  /// non-empty layout whose size is not n_surfaces, or sweep options
  /// CoarseToFineSweep rejects. Every fleet runtime's ctor calls it.
  void validate() const;
};

/// One device's slot in a fleet partition: what its link plant is built
/// from, decided before any plant exists.
struct DevicePlacement {
  std::size_t serving = 0;           ///< deployment surface serving it
  channel::LinkGeometry geometry{};  ///< link geometry of the serving hop
  /// Non-home scene surfaces: the device_scene_spec ring without a layout,
  /// the placed, pruned city spec with one.
  channel::SceneSpec scene{};
  /// Deployment surface behind scene surface k + 1.
  std::vector<std::size_t> externals;
};

/// Partitions `devices` over the deployment for the fleet runtimes
/// (CityFleetEngine and track::FleetTracker), serially in roster order and
/// from the config and roster alone, so every runtime built on it is
/// byte-identical for any worker count. Without a layout (the trivial
/// layout): explicit or round-robin serving, the template geometry and the
/// device_scene_spec ring. With a layout: explicit or nearest-surface
/// serving, and the serving distance and placed scene from
/// channel::build_city_scene_spec. Each placement goes to place(i, ...) as
/// soon as it is decided, so a caller never holds a second per-device
/// table. Returns the shard groups of device indices, ascending within a
/// group: without a layout every device is its own group; with one, group
/// c holds the devices whose serving surface lies in spatial cell c (one
/// group per index cell, possibly empty). Throws what config.validate()
/// throws, std::invalid_argument when a layout is set and a device has no
/// position, and std::out_of_range when a device names a surface >=
/// n_surfaces.
[[nodiscard]] std::vector<std::vector<std::size_t>> partition_fleet(
    const DeploymentConfig& config, const std::vector<DeviceSpec>& devices,
    const std::function<void(std::size_t, DevicePlacement&&)>& place);

/// One device's link for a round: its placement's serving surface and
/// externals, and the scene built from the placement.
struct DeviceLink {
  std::size_t serving = 0;
  std::vector<std::size_t> externals;
  channel::PropagationScene scene;
};

/// links[i] is roster device i's link; groups are partition_fleet's.
struct FleetLinks {
  std::vector<DeviceLink> links;
  std::vector<std::vector<std::size_t>> groups;
};

/// Places `devices` with partition_fleet (throwing what it throws) and
/// builds each one's link once: the one place a deployment device's scene
/// is built, shared by DeploymentEngine and CityFleetEngine.
[[nodiscard]] FleetLinks link_fleet(const DeploymentConfig& config,
                                    const std::vector<DeviceSpec>& devices);

/// Per-device optimization outcome.
struct DeviceResult {
  std::string name;
  std::size_t surface = 0;  ///< surface this device was scheduled on
  control::SweepResult sweep;
  common::PowerDbm optimized_power{-120.0};    ///< expected, at best bias
  common::PowerDbm unoptimized_power{-120.0};  ///< expected, surface absent
  /// Slot-weighted interference this device receives from every surface it
  /// is NOT served by (0 mW when leakage is disabled or M == 1).
  common::PowerMw leakage{0.0};
};

/// One surface's airtime schedule. Slot device_indices index into
/// `device_ids` (the surface-local roster), which in turn indexes
/// DeploymentReport::devices.
struct SurfaceReport {
  std::size_t surface = 0;
  std::vector<std::size_t> device_ids;
  std::vector<control::ScheduleSlot> slots;
  /// Expected per-device mean power under the schedule, per device_ids entry.
  std::vector<common::PowerDbm> scheduled_power;
};

/// Outcome of one deployment-wide optimization round.
struct DeploymentReport {
  std::vector<DeviceResult> devices;
  std::vector<SurfaceReport> surfaces;
  common::PowerDbm noise_floor{-120.0};
  /// Sum over links of Shannon spectral efficiency [bit/s/Hz] at the
  /// scheduled expected power.
  double sum_capacity_bits_per_hz = 0.0;
  /// Same aggregate for the unassisted network (no surface deployed).
  double unassisted_capacity_bits_per_hz = 0.0;
  /// Mean uncoded QPSK BER over links at the scheduled SNR.
  double mean_ber = 0.0;
  double unassisted_mean_ber = 0.0;
  /// Per-link interference aggregate: total cross-surface leakage summed
  /// over devices (0 when the interference model is disabled), and the
  /// worst single link's leakage. With leakage enabled the capacity/BER
  /// aggregates are SINR-based: each link's noise is rate_noise plus its
  /// own leakage.
  common::PowerMw total_leakage{0.0};
  common::PowerMw max_leakage{0.0};
  metasurface::ResponseCacheStats cache_stats;
  std::size_t plan_count = 0;
  /// run_codebook_file() provenance: whether the compiled artifact actually
  /// served the round, and if not, why it was rejected (empty otherwise).
  bool used_codebook = false;
  std::string codebook_fallback_reason;
};

/// M surfaces, N devices, one shared response engine.
class DeploymentEngine {
 public:
  /// Throws what config.validate() throws, and std::invalid_argument when
  /// `config.layout` is non-empty: the codebook config hash covers the ring
  /// model only (city layouts run on CityFleetEngine / FleetTracker).
  explicit DeploymentEngine(DeploymentConfig config,
                            metasurface::RotatorStack stack =
                                metasurface::prototype_fr4_design());

  /// Optimizes every device's bias pair (Algorithm 1, batched measurement
  /// model, sharded over the partition groups), builds each surface's
  /// schedule, and aggregates capacity/BER. Deterministic: byte-identical
  /// results for any `threads` setting. Throws std::out_of_range when a
  /// DeviceSpec names a surface index >= n_surfaces.
  [[nodiscard]] DeploymentReport run(const std::vector<DeviceSpec>& devices);

  /// Codebook fast path of run(): every device's bias pair comes from one
  /// O(1) lookup in the shared immutable codebook instead of an Algorithm-1
  /// sweep — the lookup itself takes no locks, so N devices across M
  /// surfaces re-optimize concurrently without contending on anything; the
  /// per-device response evaluation (for the reported power) is the only
  /// shared-cache touch. When the measured power undershoots the codebook's
  /// interpolated prediction by > 1 dB the device falls back to its nearest
  /// cell's compiled best (a probed optimum) and takes the better of the
  /// two — still sweep-free, at most two evaluations. Scheduling and
  /// capacity/BER aggregation are identical to run(). Throws like run(),
  /// plus std::invalid_argument on a surface-mode mismatch,
  /// codebook::CodebookStaleError when the codebook's config hash differs
  /// from deployment_config_hash(config(), stack), and std::out_of_range
  /// when the deployment frequency is outside the compiled axis.
  [[nodiscard]] DeploymentReport run_codebook(
      const std::vector<DeviceSpec>& devices, const codebook::Codebook& book);

  /// run_codebook() from a serialized artifact, with degraded-mode serving:
  /// any artifact failure — unreadable/truncated/corrupt file
  /// (CodebookFormatError), stale config hash (CodebookStaleError), surface
  /// mode or frequency mismatch — falls back to the full Algorithm-1 run()
  /// instead of failing the fleet. The report's used_codebook /
  /// codebook_fallback_reason record which path served the round. Device
  /// roster errors still throw exactly like run(), before the artifact is
  /// read.
  [[nodiscard]] DeploymentReport run_codebook_file(
      const std::vector<DeviceSpec>& devices, const std::string& path);

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] SharedResponseEngine& response_engine() { return engine_; }

 private:
  /// One round over `fleet`, each bias from optimize() (`book` null) or
  /// look_up() in a checked `book`, then finalize_report.
  DeploymentReport round(const std::vector<DeviceSpec>& devices,
                         const FleetLinks& fleet,
                         const codebook::Codebook* book);
  control::SweepResult optimize(const channel::PropagationScene& scene);
  control::SweepResult look_up(const channel::PropagationScene& scene,
                               common::Angle orientation,
                               const codebook::Codebook& book);
  /// Throws when `book` cannot serve this deployment: std::invalid_argument
  /// on a surface-mode mismatch, codebook::CodebookStaleError on a config-
  /// hash mismatch, std::out_of_range when the deployment frequency lies
  /// outside the compiled axis.
  void check_codebook(const codebook::Codebook& book) const;
  /// Shared tail: per-surface scheduling, the cross-surface leakage pass
  /// (slot-weighted interference each device receives from its link's
  /// external surfaces' final schedules), then SINR-based capacity/BER
  /// aggregation.
  void finalize_report(const std::vector<DeviceSpec>& devices,
                       const FleetLinks& fleet, DeploymentReport& report);

  DeploymentConfig config_;
  SharedResponseEngine engine_;
  /// Expected-power measurement model only (no RNG state is consumed).
  radio::Receiver receiver_;
};

}  // namespace llama::deploy
