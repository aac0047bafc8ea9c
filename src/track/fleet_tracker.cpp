#include "src/track/fleet_tracker.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/common/contracts.h"
#include "src/common/parallel.h"
#include "src/core/scenarios.h"
#include "src/fault/fault_injector.h"

namespace llama::track {

namespace {

/// One device's whole plant: every device owns its own copies, so the
/// fan-out shares no mutable state.
struct Shard {
  std::unique_ptr<core::LlamaSystem> system;
  std::unique_ptr<channel::OrientationProcess> process;
  std::unique_ptr<RetunePolicy> policy;
  std::unique_ptr<TrackingLoop> loop;
  std::size_t home = 0;  ///< serving surface the partition assigned
  /// Deployment surface behind scene surface k + 1.
  std::vector<std::size_t> externals;
};

}  // namespace

FleetTracker::FleetTracker(FleetConfig config) : config_(std::move(config)) {
  config_.deployment.validate();
  if (config_.loop.dt_s <= 0.0)
    throw std::invalid_argument{"FleetTracker: loop tick must be positive"};
  if (!config_.deployment.layout.empty() && config_.faults)
    throw std::invalid_argument{
        "FleetTracker: a fault plan cannot run on a city layout (moving a "
        "device to another mount needs its link plant rebuilt for the new "
        "serving distance and scene)"};
  if (config_.faults) fault::validate(*config_.faults);
}

FleetReport FleetTracker::run(const std::vector<FleetDeviceSpec>& devices,
                              const PolicyFactory& make_policy, long ticks) {
  if (ticks <= 0) throw std::invalid_argument{"FleetTracker: need >= 1 tick"};
  if (!make_policy)
    throw std::invalid_argument{"FleetTracker: missing policy factory"};
  std::vector<deploy::DeviceSpec> roster(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!devices[i].process)
      throw std::invalid_argument{"FleetTracker: device '" + devices[i].name +
                                  "' has no orientation-process factory"};
    roster[i].name = devices[i].name;
    roster[i].surface = devices[i].surface;
    roster[i].position = devices[i].position;
  }

  const std::size_t n_surfaces = config_.deployment.n_surfaces;
  const bool leakage = config_.deployment.interference.enable_leakage &&
                       n_surfaces > 1;
  std::optional<fault::FaultInjector> injector;
  std::optional<fault::HealthMonitor> monitor;
  if (config_.faults) {
    injector.emplace(*config_.faults);
    monitor.emplace(n_surfaces, config_.health);
  }

  FleetReport report;
  report.devices.resize(devices.size());

  // Plants are built serially, in device order, so the run never depends on
  // construction interleaving.
  std::vector<Shard> shards(devices.size());
  const auto build_plant = [&](std::size_t i,
                                deploy::DevicePlacement&& placement) {
    core::SystemConfig cfg = core::device_system_config(
        config_.deployment, common::Angle::degrees(0.0));
    cfg.geometry = placement.geometry;
    // A city scene carries its placed leakage only when leakage is on; the
    // ring scene already matches device_system_config's.
    if (config_.deployment.interference.enable_leakage)
      cfg.scene = std::move(placement.scene);
    Shard& shard = shards[i];
    shard.system = std::make_unique<core::LlamaSystem>(std::move(cfg));
    // Tracking revisits quantized biases constantly (codebook hits, the
    // re-sweep's coarse window); the memo keeps per-tick probes cheap.
    shard.system->enable_fast_probes(config_.deployment.cache);
    shard.process = devices[i].process();
    shard.policy = make_policy();
    shard.loop = std::make_unique<TrackingLoop>(*shard.system, *shard.process,
                                                *shard.policy, config_.loop);
    shard.loop->begin(ticks);
    if (injector)
      shard.loop->set_fault_context({&*injector, i, placement.serving});
    shard.home = placement.serving;
    shard.externals = std::move(placement.externals);
  };
  const std::vector<std::vector<std::size_t>> groups =
      deploy::partition_fleet(config_.deployment, roster, build_plant);
  std::vector<std::size_t> current(devices.size());  // may drift from home
  for (std::size_t i = 0; i < devices.size(); ++i) current[i] = shards[i].home;

  // Health hook (with a fault plan): after every tick a serial pass walks
  // the per-surface state machines and reassigns devices away from
  // quarantined surfaces (and back, through the probation canary protocol).
  // Evidence is read from each shard's completed tick, so the run stays
  // byte-identical for any thread count.
  std::vector<fault::SurfaceHealth> prev_health(
      n_surfaces, fault::SurfaceHealth::kHealthy);
  // Lowest-index serving surface, healthy rungs first; refugees are never
  // parked on a probation surface (it serves its canary only).
  const auto pick_target =
      [&monitor, n_surfaces](std::size_t avoid) -> std::optional<std::size_t> {
    for (const fault::SurfaceHealth want :
         {fault::SurfaceHealth::kHealthy, fault::SurfaceHealth::kDegraded})
      for (std::size_t s = 0; s < n_surfaces; ++s)
        if (s != avoid && monitor->health(s) == want) return s;
    return std::nullopt;
  };
  const auto move_device = [&](std::size_t i, std::size_t target) {
    current[i] = target;
    shards[i].loop->set_fault_context({&*injector, i, target});
    // Fresh policy episode on the new surface: a ladder parked in
    // direct-only against the dead surface must start over on the live one.
    shards[i].loop->rebind_policy();
    ++report.reassignments;
  };
  const auto health_pass = [&](double t_s) {
    // Evidence is power-based (below the outage floor), NOT duty-based: a
    // surface whose devices all happen to burn a tick re-sweeping is busy,
    // not broken.
    std::vector<fault::HealthMonitor::TickEvidence> evidence(n_surfaces);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const std::optional<TrackTrace> last = shards[i].loop->last_tick();
      fault::HealthMonitor::TickEvidence& ev = evidence[current[i]];
      ++ev.devices;
      if (last && last->power < shards[i].loop->power_floor()) ++ev.in_outage;
    }
    for (std::size_t s = 0; s < n_surfaces; ++s)
      monitor->observe(s, evidence[s], t_s);

    // React to this tick's transitions (serial, surface order then device
    // order — deterministic).
    for (std::size_t s = 0; s < n_surfaces; ++s) {
      const fault::SurfaceHealth now = monitor->health(s);
      const fault::SurfaceHealth was = prev_health[s];
      prev_health[s] = now;
      if (now == was) continue;
      const auto displaced_home = [&](std::size_t i) {
        return shards[i].home == s && current[i] != s;
      };
      if (now == fault::SurfaceHealth::kQuarantined) {
        // Evacuate everyone currently on the surface (covers both the
        // first quarantine and a failed canary trial).
        const std::optional<std::size_t> target = pick_target(s);
        if (!target) continue;  // whole fleet sick; nowhere better
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (current[i] == s) move_device(i, *target);
      } else if (now == fault::SurfaceHealth::kProbation) {
        // Trial re-admission: send the lowest-index displaced home device
        // back as the canary.
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (displaced_home(i)) {
            move_device(i, s);
            break;
          }
      } else if (now == fault::SurfaceHealth::kHealthy &&
                 was == fault::SurfaceHealth::kProbation) {
        // Surface earned its way back: every displaced device goes home.
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (displaced_home(i)) move_device(i, s);
      }
    }
  };

  // Leakage hook (leakage on, M > 1): what each surface aired at the
  // previous tick's end; nullopt until its first tick and while it is
  // offline (absent from neighbors' scenes). The one-tick delay keeps the
  // fan-out deterministic: every shard reads the same immutable snapshot.
  std::vector<std::optional<em::JonesMatrix>> aired(n_surfaces);
  // Every deployment surface is the same fabricated stack; one cached
  // evaluator serves the snapshot responses.
  std::optional<metasurface::Metasurface> snapshot_surface;
  if (leakage) {
    snapshot_surface = metasurface::Metasurface::llama_prototype();
    snapshot_surface->enable_response_cache(config_.deployment.cache);
  }
  const auto heard_by = [&](std::size_t i) {
    // A device the health pass moved off home (flat ring only: a layout
    // rejects faults) hears its home surface in the slot of its current one.
    std::vector<std::optional<em::JonesMatrix>> heard;
    heard.reserve(shards[i].externals.size());
    for (const std::size_t s : shards[i].externals)
      heard.push_back(aired[s == current[i] ? shards[i].home : s]);
    return heard;
  };
  const auto leakage_snapshot = [&](double t_s) {
    // A surface time-shares the devices it currently serves; its neighbors
    // hear the mean of the biases it airs (serial, in device order).
    const em::Complex zero{0.0, 0.0};
    std::vector<em::JonesMatrix> sum(n_surfaces,
                                     em::JonesMatrix{zero, zero, zero, zero});
    std::vector<std::size_t> count(n_surfaces, 0);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const metasurface::Metasurface& airs = shards[i].system->surface();
      snapshot_surface->set_bias(airs.bias_x(), airs.bias_y());
      sum[current[i]] =
          sum[current[i]] +
          snapshot_surface->response(config_.deployment.frequency,
                                     config_.deployment.geometry.mode);
      ++count[current[i]];
    }
    for (std::size_t s = 0; s < n_surfaces; ++s) {
      if (injector && injector->surface_state(s, t_s).offline)
        aired[s].reset();
      else if (count[s] > 0)
        aired[s] = em::Complex{1.0 / static_cast<double>(count[s]), 0.0} *
                   sum[s];
    }
  };

  // One tick loop. Each group's worker writes only its own devices' plants
  // (shards[i] for i in the group) and reads `aired`/`current`, which only
  // the serial hooks after the join write. With neither hook active nothing
  // couples devices, so a group runs its devices' whole episode in one task.
  const long span = (monitor || leakage) ? 1 : ticks;
  for (long t = 0; t < ticks; t += span) {
    common::parallel_for(
        groups.size(), config_.deployment.threads,
        [&](std::size_t g) {
          for (const std::size_t i : groups[g]) {
            if (leakage) shards[i].system->set_external_responses(heard_by(i));
            for (long k = 0; k < span; ++k) shards[i].loop->step();
          }
        });
    const double t_s = static_cast<double>(t) * config_.loop.dt_s;
    if (monitor) health_pass(t_s);
    if (leakage) leakage_snapshot(t_s);
  }

  for (std::size_t i = 0; i < devices.size(); ++i) {
    DeviceTrackResult& out = report.devices[i];
    out.name = devices[i].name;
    out.surface = current[i];
    out.home_surface = shards[i].home;
    out.report = shards[i].loop->finish();
  }
  if (monitor) {
    report.health_transitions = monitor->transition_count();
    report.surface_health.resize(n_surfaces);
    for (std::size_t s = 0; s < n_surfaces; ++s)
      report.surface_health[s] = monitor->health(s);
  }

  // Serial aggregation (cheap): per-surface and fleet-wide rollups.
  report.surfaces.resize(config_.deployment.n_surfaces);
  for (std::size_t s = 0; s < report.surfaces.size(); ++s)
    report.surfaces[s].surface = s;
  double outage_sum = 0.0;
  for (const DeviceTrackResult& d : report.devices) {
    LLAMA_INVARIANT(d.surface < report.surfaces.size(),
                    "device results roll up onto deployment surfaces");
    SurfaceTrackSummary& sr = report.surfaces[d.surface];
    ++sr.device_count;
    sr.mean_outage_fraction += d.report.outage_fraction;  // sum, for now
    sr.retune_count += d.report.retune_count;
    sr.retune_airtime_s += d.report.retune_airtime_s;
    sr.sum_delivered_mbps += d.report.mean_delivered_mbps;
    outage_sum += d.report.outage_fraction;
    report.retune_count += d.report.retune_count;
    report.retune_airtime_s += d.report.retune_airtime_s;
    report.sum_delivered_mbps += d.report.mean_delivered_mbps;
    report.dropped_measurements += d.report.dropped_measurements;
  }
  for (SurfaceTrackSummary& sr : report.surfaces)
    if (sr.device_count > 0)
      sr.mean_outage_fraction /= static_cast<double>(sr.device_count);
  if (!report.devices.empty())
    report.mean_outage_fraction =
        outage_sum / static_cast<double>(report.devices.size());
  report.mean_retune_latency_s =
      report.retune_count > 0
          ? report.retune_airtime_s / static_cast<double>(report.retune_count)
          : 0.0;
  return report;
}

}  // namespace llama::track
