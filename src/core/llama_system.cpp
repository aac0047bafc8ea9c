#include "src/core/llama_system.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/codebook/codebook.h"
#include "src/codebook/compiler.h"
#include "src/common/math_utils.h"

namespace llama::core {

LlamaSystem::LlamaSystem(SystemConfig config, metasurface::Metasurface surface)
    : config_(std::move(config)),
      surface_(std::move(surface)),
      scene_(channel::PropagationScene::from_spec(
          config_.tx_antenna, config_.rx_antenna, config_.geometry,
          config_.environment, config_.scene)),
      supply_(),
      controller_(surface_, supply_, config_.controller),
      receiver_(config_.receiver, common::Rng{config_.seed}),
      interference_rng_(config_.seed ^ 0xB0B0ULL) {}

void LlamaSystem::set_external_responses(
    std::vector<std::optional<em::JonesMatrix>> responses) {
  if (responses.size() + 1 > scene_.surface_count())
    throw std::invalid_argument{
        "LlamaSystem: more external responses than non-home scene surfaces"};
  external_responses_ = std::move(responses);
}

std::vector<const em::JonesMatrix*> LlamaSystem::scene_responses(
    const em::JonesMatrix* home) const {
  std::vector<const em::JonesMatrix*> ptrs(scene_.surface_count(), nullptr);
  ptrs[0] = home;
  for (std::size_t i = 0;
       i < external_responses_.size() && i + 1 < ptrs.size(); ++i)
    if (external_responses_[i]) ptrs[i + 1] = &*external_responses_[i];
  return ptrs;
}

common::PowerDbm LlamaSystem::channel_power_with_surface() const {
  // A crashed surface is absent from its own scene: only the direct path
  // and any external surfaces carry signal.
  if (!surface_online_)
    return scene_.received_power(config_.tx_power, config_.frequency,
                                 scene_responses(nullptr));
  const em::JonesMatrix home =
      surface_.response(config_.frequency, scene_.geometry().mode);
  return scene_.received_power(config_.tx_power, config_.frequency,
                               scene_responses(&home));
}

common::PowerDbm LlamaSystem::with_interference_burst(
    common::PowerDbm channel_power) {
  const double burst_std = config_.environment.interference_burst_std_db();
  if (burst_std <= 0.0) return channel_power;
  // The link budget already includes the mean interference floor; bursts
  // (other 2.4 GHz traffic) add a log-normal component per measurement.
  // When the wanted signal sinks toward the floor, these bursts corrupt the
  // controller's probe comparisons — the mechanism behind the low-power
  // breakdown of Fig. 19a.
  const double floor_mw =
      config_.environment.interference_floor().to_mw().value();
  const double burst_mw =
      floor_mw * std::pow(10.0, interference_rng_.gaussian(0.0, burst_std) /
                                    10.0);
  return common::PowerMw{channel_power.to_mw().value() + burst_mw}.to_dbm();
}

common::PowerDbm LlamaSystem::measure_with_surface(double window_s) {
  return receiver_.measure(with_interference_burst(
                               channel_power_with_surface()),
                           window_s);
}

common::PowerDbm LlamaSystem::measure_without_surface(double window_s) {
  const common::PowerDbm channel_power =
      scene_.received_power_without_surface(config_.tx_power,
                                            config_.frequency);
  return receiver_.measure(with_interference_burst(channel_power), window_s);
}

common::PowerDbm LlamaSystem::expected_measure_with_surface() {
  return receiver_.expected_measure(channel_power_with_surface());
}

control::PowerProbe LlamaSystem::make_probe(double window_s) {
  return [this, window_s](common::Voltage vx, common::Voltage vy) {
    surface_.set_bias(vx, vy);
    return measure_with_surface(window_s);
  };
}

control::GridPowerProbe LlamaSystem::make_grid_probe(int threads) {
  return [this, threads](const std::vector<double>& vxs,
                         const std::vector<double>& vys) {
    const metasurface::SurfaceMode mode = scene_.geometry().mode;
    const metasurface::JonesGrid responses =
        surface_.response_grid(config_.frequency, mode, vxs, vys, threads);
    // Frozen contributions (direct path, external surfaces) are summed
    // once; only the swept home surface's path is evaluated per cell. The
    // freeze is rebuilt on every probe call, so a set_geometry between
    // probes can never be served from stale state.
    const channel::PropagationScene::FrozenEval frozen = scene_.freeze_except(
        channel::PropagationScene::kHomeSurface, config_.tx_power,
        config_.frequency, scene_responses(nullptr));
    // Offline surface: every swept cell scatters nothing (explicit zero —
    // the JonesMatrix default is identity).
    const em::JonesMatrix zero{em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0},
                               em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0}};
    control::PowerGrid grid(vys.size(),
                            std::vector<common::PowerDbm>(vxs.size()));
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix)
        grid[iy][ix] = receiver_.expected_measure(scene_.received_power_swept(
            frozen, surface_online_ ? responses[iy][ix] : zero));
    if (!vxs.empty() && !vys.empty())
      surface_.set_bias(common::Voltage{vxs.back()},
                        common::Voltage{vys.back()});
    return grid;
  };
}

void LlamaSystem::enable_fast_probes(metasurface::ResponseCacheConfig config) {
  surface_.enable_response_cache(config);
}

control::OptimizationReport LlamaSystem::optimize_link() {
  return controller_.optimize(make_probe());
}

control::OptimizationReport LlamaSystem::optimize_link_batched() {
  const control::PowerProbe baseline =
      [this](common::Voltage vx, common::Voltage vy) {
        surface_.set_bias(vx, vy);
        return expected_measure_with_surface();
      };
  return controller_.optimize(baseline, make_grid_probe());
}

std::uint64_t LlamaSystem::codebook_config_hash() const {
  // Hash the *live* link state, not the construction-time snapshot: a
  // set_geometry() or set_tx_antenna() since construction is real drift a
  // stale codebook must not survive. The rx antenna's orientation is the
  // codebook's query axis and is excluded inside the hash; this system's
  // actual stack design is included, so a codebook compiled for a
  // different fabrication never validates here. The scene topology is
  // included too: extra surfaces reshape the power landscape, so a
  // codebook compiled for another topology must not be served.
  //
  // The rx-independent prefix (stack boards, scene topology, environment
  // rays) dominates the hashing cost and only changes when the scene's
  // structural state does, so it is memoized on structural_revision():
  // the per-round path of a tracked device re-orienting pays only the
  // final rx-antenna mix. config_.tx_power/.receiver are construction-time
  // constants, so the scene counter alone keys the memo.
  if (!config_hash_prefix_ ||
      config_hash_prefix_->first != scene_.structural_revision())
    config_hash_prefix_.emplace(
        scene_.structural_revision(),
        codebook::link_config_prefix(config_.tx_power, scene_.geometry(),
                                     scene_.tx_antenna(),
                                     scene_.environment(), config_.receiver,
                                     surface_.stack(), scene_.spec()));
  return codebook::finish_link_config_hash(config_hash_prefix_->second,
                                           scene_.rx_antenna());
}

void LlamaSystem::validate_codebook(const codebook::Codebook& book,
                                    const std::string& who) const {
  const codebook::Codebook::Header& header = book.header();
  if (header.mode != scene_.geometry().mode)
    throw std::invalid_argument{
        who + ": codebook surface mode does not match the link geometry"};
  if (header.config_hash != codebook_config_hash())
    throw codebook::CodebookStaleError{
        who +
        ": codebook was compiled for a different link configuration "
        "(config-hash mismatch); recompile it for this system"};
  if (!book.covers_frequency(config_.frequency))
    throw std::out_of_range{
        who +
        ": system frequency lies outside the codebook's compiled frequency "
        "axis"};
}

control::OptimizationReport LlamaSystem::optimize_link_codebook(
    const codebook::Codebook& book, const CodebookLinkOptions& options) {
  validate_codebook(book, "optimize_link_codebook");

  control::OptimizationReport report;
  report.baseline = expected_measure_with_surface();

  const common::Angle orientation =
      scene_.rx_antenna().polarization().orientation();
  const codebook::BiasPoint hit = book.lookup(config_.frequency, orientation);

  const double t0 = supply_.elapsed_s();
  // Transient switch failures retry with bounded backoff; every attempt and
  // dwell is on the supply clock, so the caller's airtime math stays
  // honest. The surface is programmed at what the supply actually delivers
  // (a brownout clamp shows up here), so the measured-vs-predicted
  // deviation check below sees real hardware misbehavior.
  control::set_outputs_with_retry(supply_, hit.vx, hit.vy, options.retry);
  surface_.set_bias(supply_.output_x(), supply_.output_y());
  const common::PowerDbm measured = expected_measure_with_surface();
  report.sweep.best_vx = hit.vx;
  report.sweep.best_vy = hit.vy;
  report.sweep.best_power = measured;
  report.sweep.probes = 1;

  const bool deviated =
      measured.value() <
      hit.predicted_power.value() - options.fine_sweep_threshold.value();
  if (options.enable_fine_sweep && deviated) {
    // Local refinement over the nearest cell's top-K neighborhood — a tiny
    // batched grid, not a full Algorithm-1 round.
    const codebook::RefinementWindow window = book.refinement_window(
        book.nearest(config_.frequency, orientation));
    const int steps = std::max(2, options.fine_steps_per_axis);
    const std::vector<double> vxs =
        common::linspace(window.vx_min.value(), window.vx_max.value(), steps);
    const std::vector<double> vys =
        common::linspace(window.vy_min.value(), window.vy_max.value(), steps);
    const control::PowerGrid grid =
        make_grid_probe(options.threads)(vxs, vys);
    // Reduce in FullGridSweep scan order (vy outer, vx inner), charging one
    // supply switch per cell like the batched sweeps do.
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        control::set_outputs_with_retry(supply_, common::Voltage{vxs[ix]},
                                        common::Voltage{vys[iy]},
                                        options.retry);
        ++report.sweep.probes;
        if (grid[iy][ix] > report.sweep.best_power) {
          report.sweep.best_power = grid[iy][ix];
          report.sweep.best_vx = common::Voltage{vxs[ix]};
          report.sweep.best_vy = common::Voltage{vys[iy]};
        }
      }
    surface_.set_bias(report.sweep.best_vx, report.sweep.best_vy);
  }
  report.sweep.time_cost_s = supply_.elapsed_s() - t0;
  report.improvement = report.sweep.best_power - report.baseline;
  return report;
}

LlamaSystem::CodebookPathReport LlamaSystem::optimize_link_codebook_file(
    const std::string& path, const CodebookLinkOptions& options) {
  CodebookPathReport out;
  std::optional<codebook::Codebook> book;
  try {
    book.emplace(codebook::Codebook::load(path));
    validate_codebook(*book, "optimize_link_codebook_file");
  } catch (const std::invalid_argument& e) {
    out.fallback_reason = e.what();  // surface-mode mismatch
    book.reset();
  } catch (const std::out_of_range& e) {
    out.fallback_reason = e.what();  // frequency not covered
    book.reset();
  } catch (const std::runtime_error& e) {
    // CodebookFormatError, CodebookStaleError, unreadable file. Load and
    // validation run before any supply command, so this can never swallow a
    // hardware SupplySwitchError.
    out.fallback_reason = e.what();
    book.reset();
  }
  if (book) {
    out.report = optimize_link_codebook(*book, options);
    out.used_codebook = true;
  } else {
    out.report = optimize_link_batched();
  }
  return out;
}

common::GainDb LlamaSystem::improvement() {
  return measure_with_surface(/*window_s=*/0.1) - measure_without_surface();
}

double LlamaSystem::capacity_with_surface() {
  return channel::capacity_bits_per_hz(measure_with_surface(0.1),
                                       receiver_.noise_floor_dbm());
}

double LlamaSystem::capacity_without_surface() {
  return channel::capacity_bits_per_hz(measure_without_surface(),
                                       receiver_.noise_floor_dbm());
}

control::RotationEstimate LlamaSystem::estimate_rotation(
    control::RotationEstimator::Options options) {
  control::RotationEstimator estimator{options};
  const control::BiasSetter set_bias = [this](common::Voltage vx,
                                              common::Voltage vy) {
    surface_.set_bias(vx, vy);
  };
  const control::OrientationProbe probe = [this](common::Angle orientation) {
    scene_.set_rx_antenna(scene_.rx_antenna().oriented(orientation));
    return measure_with_surface(/*window_s=*/0.02);
  };
  return estimator.estimate(set_bias, probe);
}

}  // namespace llama::core
