#include "src/deploy/deployment_engine.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/channel/ber.h"
#include "src/channel/capacity.h"
#include "src/codebook/codebook.h"
#include "src/codebook/compiler.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/control/power_supply.h"

namespace llama::deploy {

namespace {

/// A checked, clamped bias snapped to the cache's quantization lattice: the
/// value every cached response is evaluated at. Rejecting non-finite biases
/// here keeps llround(NaN) from filing a NaN cell under an arbitrary key.
double quantized_bias(const metasurface::ResponseCache& cache, double v,
                      const char* what) {
  return cache.quantize(common::Voltage{metasurface::checked_bias(v, what)})
      .value();
}

/// Normalized map key for a frequency (mirrors ResponseCache::make_key's
/// signed-zero handling; NaN is rejected there before we ever look up).
double plan_key(common::Frequency f) {
  const double hz = f.in_hz();
  return hz == 0.0 ? 0.0 : hz;
}

}  // namespace

void DeploymentConfig::validate() const {
  if (n_surfaces == 0)
    throw std::invalid_argument{"DeploymentConfig: n_surfaces must be >= 1"};
  if (!layout.empty() && layout.positions.size() != n_surfaces)
    throw std::invalid_argument{
        "DeploymentConfig: layout.positions.size() (" +
        std::to_string(layout.positions.size()) + ") must equal n_surfaces (" +
        std::to_string(n_surfaces) + ")"};
  control::PowerSupply supply;
  try {
    (void)control::CoarseToFineSweep{supply, sweep};
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{std::string{"DeploymentConfig: sweep: "} +
                                e.what()};
  }
}

channel::SceneSpec device_scene_spec(std::size_t n_surfaces,
                                     const InterferenceModel& interference) {
  channel::SceneSpec spec;
  if (!interference.enable_leakage || n_surfaces <= 1) return spec;
  channel::LeakageSurfaceSpec leak;
  leak.lateral_offset_m = interference.surface_spacing_m;
  leak.coupling = interference.leakage_coupling;
  spec.leakage.assign(n_surfaces - 1, leak);
  return spec;
}

std::vector<std::vector<std::size_t>> partition_fleet(
    const DeploymentConfig& config, const std::vector<DeviceSpec>& devices,
    const std::function<void(std::size_t, DevicePlacement&&)>& place) {
  config.validate();
  const channel::SurfaceLayout& layout = config.layout;
  const bool city = !layout.empty();
  const channel::SpatialSurfaceIndex index =
      city ? channel::SpatialSurfaceIndex{layout.positions,
                                          layout.prune.cell_size_m}
           : channel::SpatialSurfaceIndex{};

  std::vector<std::vector<std::size_t>> groups(city ? index.cell_count()
                                                    : devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const DeviceSpec& spec = devices[i];
    if (city && !spec.position)
      throw std::invalid_argument{
          "partition_fleet: device '" + spec.name +
          "' needs a position (the deployment carries a city layout)"};
    if (spec.surface >= 0 &&
        static_cast<std::size_t>(spec.surface) >= config.n_surfaces)
      throw std::out_of_range{"partition_fleet: device '" + spec.name +
                              "' names surface " +
                              std::to_string(spec.surface) + " of " +
                              std::to_string(config.n_surfaces)};

    DevicePlacement p;
    p.serving = spec.surface >= 0 ? static_cast<std::size_t>(spec.surface)
                : city            ? index.nearest(*spec.position)
                                  : i % config.n_surfaces;
    p.geometry = config.geometry;
    if (!city) {
      p.scene = device_scene_spec(config.n_surfaces, config.interference);
      if (!p.scene.empty())
        for (std::size_t s = 0; s < config.n_surfaces; ++s)
          if (s != p.serving) p.externals.push_back(s);
      groups[i].push_back(i);
    } else {
      const channel::CitySceneBuild build = channel::build_city_scene_spec(
          index, layout, p.serving, *spec.position,
          config.geometry.tx_surface_distance_m);
      // The AP sits tx_surface_distance behind its transmissive surface; the
      // device is serving_distance past it on the far side.
      p.geometry.tx_rx_distance_m =
          p.geometry.tx_surface_distance_m + build.serving_distance_m;
      // Copied, not moved: the build reserves a slot per surface, the copy
      // holds only the kept paths.
      p.scene = build.spec;
      for (const channel::PlacedLeakageSpec& placed : p.scene.placed)
        p.externals.push_back(placed.external_id);
      groups[static_cast<std::size_t>(index.cell_of(p.serving))].push_back(i);
    }
    place(i, std::move(p));
  }
  return groups;
}

FleetLinks link_fleet(const DeploymentConfig& config,
                      const std::vector<DeviceSpec>& devices) {
  FleetLinks fleet;
  fleet.links.reserve(devices.size());
  fleet.groups = partition_fleet(
      config, devices, [&](std::size_t i, DevicePlacement&& p) {
        fleet.links.push_back(DeviceLink{
            p.serving, std::move(p.externals),
            channel::PropagationScene::from_spec(
                config.tx_antenna,
                config.rx_antenna.oriented(devices[i].orientation),
                p.geometry, config.environment, std::move(p.scene))});
      });
  return fleet;
}

SharedResponseEngine::SharedResponseEngine(
    metasurface::RotatorStack stack, metasurface::ResponseCacheConfig cache)
    : stack_(std::move(stack)), cache_(cache) {}

em::JonesMatrix SharedResponseEngine::response(common::Frequency f,
                                               metasurface::SurfaceMode mode,
                                               common::Voltage vx,
                                               common::Voltage vy) {
  const double vxq =
      quantized_bias(cache_, vx.value(), "SharedResponseEngine: response vx");
  const double vyq =
      quantized_bias(cache_, vy.value(), "SharedResponseEngine: response vy");
  em::JonesMatrix cell;
  em::JonesMatrix* const row = &cell;
  lookup_window(f, mode, {&vxq, 1}, {&vyq, 1}, {&row, 1});
  return cell;
}

const metasurface::RotatorStack::TransmissionPlan&
SharedResponseEngine::transmission_plan(common::Frequency f) {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  auto it = transmission_plans_.find(plan_key(f));
  if (it == transmission_plans_.end())
    it = transmission_plans_.emplace(plan_key(f), stack_.plan_transmission(f))
             .first;
  return it->second;
}

const metasurface::RotatorStack::ReflectionPlan&
SharedResponseEngine::reflection_plan(common::Frequency f) {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  auto it = reflection_plans_.find(plan_key(f));
  if (it == reflection_plans_.end())
    it = reflection_plans_.emplace(plan_key(f), stack_.plan_reflection(f))
             .first;
  return it->second;
}

metasurface::JonesGrid SharedResponseEngine::response_grid(
    common::Frequency f, metasurface::SurfaceMode mode,
    const std::vector<double>& vxs, const std::vector<double>& vys) {
  metasurface::JonesGrid grid(vys.size(),
                              std::vector<em::JonesMatrix>(vxs.size()));
  if (vxs.empty() || vys.empty()) return grid;
  std::vector<double> vxq(vxs.size());
  std::vector<double> vyq(vys.size());
  for (std::size_t ix = 0; ix < vxs.size(); ++ix)
    vxq[ix] = quantized_bias(cache_, vxs[ix],
                             "SharedResponseEngine: response_grid vxs");
  for (std::size_t iy = 0; iy < vys.size(); ++iy)
    vyq[iy] = quantized_bias(cache_, vys[iy],
                             "SharedResponseEngine: response_grid vys");
  std::vector<em::JonesMatrix*> rows(grid.size());
  for (std::size_t iy = 0; iy < grid.size(); ++iy) rows[iy] = grid[iy].data();
  lookup_window(f, mode, vxq, vyq, rows);
  return grid;
}

void SharedResponseEngine::lookup_window(
    common::Frequency f, metasurface::SurfaceMode mode,
    std::span<const double> vxq, std::span<const double> vyq,
    std::span<em::JonesMatrix* const> rows) {
  const int mode_key = static_cast<int>(mode);
  const auto key_of = [&](std::size_t iy, std::size_t ix) {
    return cache_.make_key(f, common::Voltage{vxq[ix]},
                           common::Voltage{vyq[iy]}, mode_key);
  };

  // Pass 1, one lock: drain every hit, remember the misses.
  std::vector<std::pair<std::size_t, std::size_t>> misses;
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    for (std::size_t iy = 0; iy < vyq.size(); ++iy)
      for (std::size_t ix = 0; ix < vxq.size(); ++ix) {
        if (auto hit = cache_.find(key_of(iy, ix)))
          rows[iy][ix] = *hit;
        else
          misses.emplace_back(iy, ix);
      }
  }
  if (misses.empty()) return;

  // Any miss: one kernel over the whole window, outside any lock. Each cell
  // is a pure function of (plan, vx, vy) — not of the window's shape or the
  // cell's place in it — so hit cells recompute to the bytes they were
  // cached with, and a key computed here has the bytes it has in any other
  // window.
  metasurface::evaluate_plane(
      stack_, mode, [&]() -> const auto& { return transmission_plan(f); },
      [&]() -> const auto& { return reflection_plan(f); }, vxq, vyq,
      /*blend=*/nullptr, /*threads=*/1, rows);

  // Pass 2, one lock: publish the new cells. A key a racing shard published
  // meanwhile is refreshed with identical bytes and counted as a hit.
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    for (const auto& [iy, ix] : misses)
      cache_.insert(key_of(iy, ix), rows[iy][ix]);
  }
}

std::size_t SharedResponseEngine::plan_count() const {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  return transmission_plans_.size() + reflection_plans_.size();
}

metasurface::ResponseCacheStats SharedResponseEngine::cache_stats() const {
  // The counters are relaxed atomics, so a monitor polling statistics never
  // serializes against device shards inside the two-lock window path.
  metasurface::ResponseCacheStats stats = cache_.stats();
  stats.lock_contention = plan_mutex_.contended() + cache_mutex_.contended();
  return stats;
}

DeploymentEngine::DeploymentEngine(DeploymentConfig config,
                                   metasurface::RotatorStack stack)
    : config_(std::move(config)),
      engine_(std::move(stack), config_.cache),
      receiver_(config_.receiver, common::Rng{0}) {
  config_.validate();
  if (!config_.layout.empty())
    throw std::invalid_argument{
        "DeploymentEngine: config.layout must be empty (the codebook config "
        "hash covers the ring model only; city layouts run on "
        "CityFleetEngine or FleetTracker)"};
}

void DeploymentEngine::check_codebook(const codebook::Codebook& book) const {
  const codebook::Codebook::Header& header = book.header();
  if (header.mode != config_.geometry.mode)
    throw std::invalid_argument{
        "DeploymentEngine: codebook surface mode does not match the "
        "deployment geometry"};
  if (header.config_hash !=
      codebook::deployment_config_hash(config_, engine_.stack()))
    throw codebook::CodebookStaleError{
        "DeploymentEngine: codebook was compiled for a different deployment "
        "configuration (config-hash mismatch); recompile it"};
  if (!book.covers_frequency(config_.frequency))
    throw std::out_of_range{
        "DeploymentEngine: deployment frequency lies outside the codebook's "
        "compiled frequency axis"};
}

DeploymentReport DeploymentEngine::run(
    const std::vector<DeviceSpec>& devices) {
  return round(devices, link_fleet(config_, devices), nullptr);
}

DeploymentReport DeploymentEngine::run_codebook(
    const std::vector<DeviceSpec>& devices, const codebook::Codebook& book) {
  const FleetLinks fleet = link_fleet(config_, devices);
  check_codebook(book);
  return round(devices, fleet, &book);
}

DeploymentReport DeploymentEngine::run_codebook_file(
    const std::vector<DeviceSpec>& devices, const std::string& path) {
  // Roster errors are the caller's bug and throw like run(), before the
  // artifact is read; only artifact failures degrade.
  const FleetLinks fleet = link_fleet(config_, devices);
  std::optional<codebook::Codebook> book;
  std::string reason;
  try {
    book.emplace(codebook::Codebook::load(path));
    check_codebook(*book);
  } catch (const std::exception& e) {
    reason = e.what();
    book.reset();
  }
  DeploymentReport report = round(devices, fleet, book ? &*book : nullptr);
  report.used_codebook = book.has_value();
  report.codebook_fallback_reason = reason;
  return report;
}

DeploymentReport DeploymentEngine::round(const std::vector<DeviceSpec>& devices,
                                         const FleetLinks& fleet,
                                         const codebook::Codebook* book) {
  DeploymentReport report;
  report.devices.resize(devices.size());
  // Each group's worker writes only its own devices' result slots; the
  // shared engine is the only cross-thread state and serves pure values,
  // so the round is deterministic for any thread count.
  common::parallel_for(fleet.groups.size(), config_.threads,
                       [&](std::size_t g) {
    for (const std::size_t i : fleet.groups[g]) {
      const DeviceLink& link = fleet.links[i];
      DeviceResult& out = report.devices[i];
      out.name = devices[i].name;
      out.surface = link.serving;
      out.sweep = book != nullptr
                      ? look_up(link.scene, devices[i].orientation, *book)
                      : optimize(link.scene);
      out.optimized_power = out.sweep.best_power;
      out.unoptimized_power =
          receiver_.expected_measure(link.scene.received_power_without_surface(
              config_.tx_power, config_.frequency));
    }
  });
  finalize_report(devices, fleet, report);
  return report;
}

control::SweepResult DeploymentEngine::optimize(
    const channel::PropagationScene& scene) {
  const common::Frequency f = config_.frequency;
  const metasurface::SurfaceMode mode = config_.geometry.mode;
  // Optimization sweeps assume quiet neighbors (the other surfaces' biases
  // are not decided yet, and serving them mid-sweep would make the result
  // depend on device order): the scene is frozen with every non-home
  // surface absent and only the swept home path is evaluated per bias
  // cell. Leakage enters afterwards, as per-link interference over the
  // final schedules (finalize_report).
  const channel::PropagationScene::FrozenEval frozen = scene.freeze_except(
      channel::PropagationScene::kHomeSurface, config_.tx_power, f,
      channel::PropagationScene::ResponseView{});
  const control::GridPowerProbe probe =
      [&](const std::vector<double>& vxs, const std::vector<double>& vys) {
        const metasurface::JonesGrid responses =
            engine_.response_grid(f, mode, vxs, vys);
        control::PowerGrid grid(vys.size(),
                                std::vector<common::PowerDbm>(vxs.size()));
        for (std::size_t iy = 0; iy < vys.size(); ++iy)
          for (std::size_t ix = 0; ix < vxs.size(); ++ix)
            grid[iy][ix] = receiver_.expected_measure(
                scene.received_power_swept(frozen, responses[iy][ix]));
        return grid;
      };
  control::PowerSupply supply;  // per-device instrument-time accounting
  control::CoarseToFineSweep sweep{supply, config_.sweep};
  return sweep.run(probe);
}

control::SweepResult DeploymentEngine::look_up(
    const channel::PropagationScene& scene, common::Angle orientation,
    const codebook::Codebook& book) {
  const common::Frequency f = config_.frequency;
  const metasurface::SurfaceMode mode = config_.geometry.mode;
  // When the power measured at the interpolated bias falls short of the
  // codebook's interpolated prediction by more than this, the device sits
  // between lattice cells whose optima disagree (a multi-modal bias plane)
  // and the blend may have landed in a valley; fall back to the nearest
  // cell's compiled best — a bias the offline sweep actually probed.
  constexpr double kDeviationThresholdDb = 1.0;
  // lookup() touches no mutable state, so the fan-out is lock-free on the
  // codebook itself; the only shared touch is one response evaluation per
  // device (two when the deviation guard fires) for the reported power
  // (cached, so devices with coinciding optima hit).
  const auto power_at = [&](common::Voltage vx, common::Voltage vy) {
    return receiver_.expected_measure(scene.received_power_with_response(
        config_.tx_power, f, engine_.response(f, mode, vx, vy)));
  };
  const codebook::BiasPoint hit = book.lookup(f, orientation);
  control::PowerSupply supply;  // per-device instrument-time accounting
  supply.set_outputs(hit.vx, hit.vy);

  control::SweepResult result;
  result.best_vx = hit.vx;
  result.best_vy = hit.vy;
  result.best_power = power_at(hit.vx, hit.vy);
  result.probes = 1;
  if (result.best_power.value() <
      hit.predicted_power.value() - kDeviationThresholdDb) {
    const codebook::BiasPoint& anchor = book.nearest(f, orientation).best;
    supply.set_outputs(anchor.vx, anchor.vy);
    const common::PowerDbm anchored = power_at(anchor.vx, anchor.vy);
    ++result.probes;
    if (anchored > result.best_power) {
      result.best_vx = anchor.vx;
      result.best_vy = anchor.vy;
      result.best_power = anchored;
    }
  }
  result.time_cost_s = supply.elapsed_s();
  return result;
}

void DeploymentEngine::finalize_report(const std::vector<DeviceSpec>& devices,
                                       const FleetLinks& fleet,
                                       DeploymentReport& report) {
  // Per-surface scheduling and network-wide aggregation (serial: cheap).
  report.noise_floor = receiver_.noise_floor_dbm();
  const control::PolarizationScheduler scheduler{config_.scheduler};
  report.surfaces.resize(config_.n_surfaces);
  for (std::size_t s = 0; s < config_.n_surfaces; ++s)
    report.surfaces[s].surface = s;
  for (std::size_t i = 0; i < report.devices.size(); ++i)
    report.surfaces[report.devices[i].surface].device_ids.push_back(i);

  // Phase 1: every surface's schedule, so the leakage pass below can see
  // what biases the OTHER surfaces actually air.
  std::vector<std::vector<control::DeviceEntry>> surface_entries(
      config_.n_surfaces);
  for (SurfaceReport& sr : report.surfaces) {
    std::vector<control::DeviceEntry>& entries = surface_entries[sr.surface];
    entries.reserve(sr.device_ids.size());
    for (std::size_t id : sr.device_ids) {
      const DeviceResult& d = report.devices[id];
      entries.push_back(control::DeviceEntry{
          d.name, d.sweep.best_vx, d.sweep.best_vy, d.optimized_power,
          d.unoptimized_power, devices[id].traffic_weight});
    }
    sr.slots = scheduler.build_schedule(entries);
    sr.scheduled_power = scheduler.expected_power(entries, sr.slots);
  }

  // Phase 2: cross-surface leakage. Each of a link's external surfaces
  // airs its own schedule's biases; the interference the device hears from
  // it is the slot-fraction-weighted power of its leakage path at each
  // aired bias. Without leakage a link has no externals.
  const common::Frequency f = config_.frequency;
  const metasurface::SurfaceMode mode = config_.geometry.mode;
  for (std::size_t i = 0; i < report.devices.size(); ++i) {
    const DeviceLink& link = fleet.links[i];
    if (link.externals.empty()) continue;
    const channel::PropagationScene& scene = link.scene;
    std::vector<const em::JonesMatrix*> responses(scene.surface_count(),
                                                  nullptr);
    double leak_mw = 0.0;
    for (std::size_t p = 0; p < scene.paths().size(); ++p) {
      if (scene.paths()[p].kind != channel::PathKind::kLeakage) continue;
      const std::size_t id = scene.paths()[p].surfaces.front();
      for (const control::ScheduleSlot& slot :
           report.surfaces[link.externals[id - 1]].slots) {
        const em::JonesMatrix r = engine_.response(f, mode, slot.vx, slot.vy);
        responses[id] = &r;
        leak_mw +=
            slot.slot_fraction *
            scene.path_power(p, config_.tx_power, f, responses).value();
        responses[id] = nullptr;
      }
    }
    DeviceResult& d = report.devices[i];
    d.leakage = common::PowerMw{leak_mw};
    report.total_leakage += d.leakage;
    if (d.leakage.value() > report.max_leakage.value())
      report.max_leakage = d.leakage;
  }

  // Phase 3: SINR-based aggregation — each link's noise is rate_noise plus
  // its own leakage (exactly rate_noise when the model is disabled).
  std::size_t links = 0;
  double ber_sum = 0.0;
  double raw_ber_sum = 0.0;
  for (SurfaceReport& sr : report.surfaces) {
    const std::vector<control::DeviceEntry>& entries =
        surface_entries[sr.surface];
    for (std::size_t k = 0; k < sr.scheduled_power.size(); ++k) {
      const common::PowerDbm sched = sr.scheduled_power[k];
      const common::PowerDbm raw = entries[k].unoptimized_power;
      const common::PowerMw leak = report.devices[sr.device_ids[k]].leakage;
      const common::PowerDbm noise =
          leak.value() > 0.0
              ? common::PowerMw{config_.rate_noise.to_mw().value() +
                                leak.value()}
                    .to_dbm()
              : config_.rate_noise;
      report.sum_capacity_bits_per_hz +=
          channel::capacity_bits_per_hz(sched, noise);
      report.unassisted_capacity_bits_per_hz +=
          channel::capacity_bits_per_hz(raw, noise);
      ber_sum += channel::ber_qpsk((sched - noise).value());
      raw_ber_sum += channel::ber_qpsk((raw - noise).value());
      ++links;
    }
  }
  report.mean_ber = links > 0 ? ber_sum / static_cast<double>(links) : 0.0;
  report.unassisted_mean_ber =
      links > 0 ? raw_ber_sum / static_cast<double>(links) : 0.0;
  report.cache_stats = engine_.cache_stats();
  report.plan_count = engine_.plan_count();
}

}  // namespace llama::deploy
