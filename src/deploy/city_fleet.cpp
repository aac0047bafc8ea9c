#include "src/deploy/city_fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/common/parallel.h"

namespace llama::deploy {

namespace {

const DeploymentConfig& validated_city_config(const DeploymentConfig& config) {
  config.validate();
  if (config.layout.empty())
    throw std::invalid_argument{
        "CityFleetEngine: config.layout has no positions"};
  if (config.geometry.mode != metasurface::SurfaceMode::kTransmissive)
    throw std::invalid_argument{
        "CityFleetEngine: city deployments model transmissive surfaces "
        "with the AP mounted behind each one"};
  return config;
}

}  // namespace

CityFleetEngine::CityFleetEngine(DeploymentConfig config,
                                 metasurface::RotatorStack stack)
    : config_(validated_city_config(config)),
      index_(config_.layout.positions, config_.layout.prune.cell_size_m),
      engine_(std::move(stack), config_.cache) {}

void CityFleetEngine::assign(const std::vector<DeviceSpec>& devices) {
  fleet_ = link_fleet(config_, devices);
  total_kept_ = total_pruned_ = 0;
  for (const DeviceLink& link : fleet_.links) {
    total_kept_ += link.scene.spec().placed.size();
    total_pruned_ += link.scene.spec().pruned_count;
  }
}

std::size_t CityFleetEngine::serving_surface(std::size_t device) const {
  if (device >= fleet_.links.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  return fleet_.links[device].serving;
}

const channel::PropagationScene& CityFleetEngine::scene(
    std::size_t device) const {
  if (device >= fleet_.links.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  return fleet_.links[device].scene;
}

double CityFleetEngine::mean_kept_leakage() const {
  if (fleet_.links.empty()) return 0.0;
  return static_cast<double>(total_kept_) /
         static_cast<double>(fleet_.links.size());
}

std::vector<em::JonesMatrix> CityFleetEngine::responses_at(
    const std::vector<SurfaceBias>& biases) {
  if (biases.size() != config_.n_surfaces)
    throw std::invalid_argument{
        "CityFleetEngine: need one bias pair per deployment surface"};
  std::vector<em::JonesMatrix> responses;
  responses.reserve(biases.size());
  for (const SurfaceBias& bias : biases)
    responses.push_back(engine_.response(config_.frequency,
                                         config_.geometry.mode, bias.vx,
                                         bias.vy));
  return responses;
}

void CityFleetEngine::view_for(const DeviceLink& link,
                               const std::vector<em::JonesMatrix>& responses,
                               std::vector<const em::JonesMatrix*>& view)
    const {
  view.assign(link.scene.surface_count(), nullptr);
  view[channel::PropagationScene::kHomeSurface] = &responses[link.serving];
  for (std::size_t k = 0; k < link.externals.size(); ++k)
    view[k + 1] = &responses[link.externals[k]];
}

CityEvalReport CityFleetEngine::evaluate(
    const std::vector<SurfaceBias>& biases) {
  return evaluate(biases, config_.threads);
}

CityEvalReport CityFleetEngine::evaluate(
    const std::vector<SurfaceBias>& biases, int threads) {
  // All M responses resolved once, serially, before the fan-out: the shard
  // loop below then touches no shared mutable state at all.
  const std::vector<em::JonesMatrix> responses = responses_at(biases);

  CityEvalReport report;
  report.power.assign(fleet_.links.size(), common::PowerDbm{-120.0});
  report.error_bound_db.assign(fleet_.links.size(), 0.0);
  report.shard_count = fleet_.groups.size();

  const common::Frequency f = config_.frequency;
  const common::PowerDbm tx_power = config_.tx_power;
  const double floor_mw =
      config_.environment.interference_floor().to_mw().value();

  // Shard = spatial cell: each worker owns its cells' devices and writes
  // only its own result slots (cell -> device grouping is a pure function
  // of the layout, never of thread count), so the fleet evaluation is
  // byte-identical for any config.threads value.
  common::parallel_for(
      fleet_.groups.size(), threads, [&](std::size_t cell) {
        std::vector<const em::JonesMatrix*> view;
        for (std::size_t i : fleet_.groups[cell]) {
          const DeviceLink& link = fleet_.links[i];
          view_for(link, responses, view);
          const common::PowerDbm p = link.scene.received_power(
              tx_power, f,
              channel::PropagationScene::ResponseView{view.data(),
                                                      view.size()});
          report.power[i] = p;
          // Worst-case dB impact of the pruned paths on THIS device's
          // signal (interference floor subtracted before the sqrt — the
          // bound lives in field space).
          const double sig_mw =
              std::max(p.to_mw().value() - floor_mw, 1e-300);
          const double amp = std::sqrt(sig_mw);
          const double bound = link.scene.pruned_field_bound(tx_power, f);
          report.error_bound_db[i] =
              bound < amp
                  ? 20.0 * std::log10(amp / (amp - bound))
                  : std::numeric_limits<double>::infinity();
        }
      });

  for (double b : report.error_bound_db)
    report.max_error_bound_db = std::max(report.max_error_bound_db, b);
  return report;
}

channel::PropagationScene::FrozenEval CityFleetEngine::freeze_device(
    std::size_t device, const std::vector<SurfaceBias>& biases) {
  if (device >= fleet_.links.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  const std::vector<em::JonesMatrix> responses = responses_at(biases);
  const DeviceLink& link = fleet_.links[device];
  std::vector<const em::JonesMatrix*> view;
  view_for(link, responses, view);
  return link.scene.freeze_except(
      channel::PropagationScene::kHomeSurface, config_.tx_power,
      config_.frequency,
      channel::PropagationScene::ResponseView{view.data(), view.size()});
}

void CityFleetEngine::refreeze_device(
    std::size_t device, channel::PropagationScene::FrozenEval& frozen,
    std::span<const std::size_t> retuned,
    const std::vector<SurfaceBias>& biases) {
  if (device >= fleet_.links.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  const std::vector<em::JonesMatrix> responses = responses_at(biases);
  const DeviceLink& link = fleet_.links[device];
  std::vector<const em::JonesMatrix*> view;
  view_for(link, responses, view);

  // Deployment surfaces -> distinct spatial cells, ascending: the frozen
  // per-cell partials for exactly these cells are re-summed; everything
  // else is untouched.
  std::vector<std::int32_t> cells;
  cells.reserve(retuned.size());
  for (std::size_t s : retuned) {
    if (s >= config_.n_surfaces)
      throw std::out_of_range{
          "CityFleetEngine: retuned surface index out of range"};
    cells.push_back(index_.cell_of(s));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  link.scene.refreeze_cells(
      frozen, cells,
      channel::PropagationScene::ResponseView{view.data(), view.size()});
}

}  // namespace llama::deploy
