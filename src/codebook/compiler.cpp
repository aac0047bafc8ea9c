#include "src/codebook/compiler.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/common/parallel.h"
#include "src/common/serde.h"
#include "src/control/power_supply.h"

namespace llama::codebook {

namespace {

/// Relative margin around s* inside which compile ranks cells by their
/// measured dBm (see compiler.h for why it is exact).
constexpr double kRankingMargin = 1e-9;

void mix_antenna(common::Hasher64& h, const channel::Antenna& a,
                 bool include_orientation) {
  h.mix_string(a.name());
  h.mix_u64(static_cast<std::uint64_t>(a.polarization().kind()));
  h.mix_f64(a.polarization().xpd_db());
  h.mix_f64(a.boresight_gain().value());
  h.mix_f64(a.directivity_exponent());
  if (include_orientation) h.mix_f64(a.polarization().orientation().rad());
}

/// The stack design determines every compiled response, so two different
/// fabrications must never share a codebook. Boards are identified by
/// their structural parameters (name, substrate, thickness) plus the
/// element's mounting (rotation, gap, tunability).
void mix_stack(common::Hasher64& h, const metasurface::RotatorStack& s) {
  h.mix_u64(s.elements().size());
  for (const metasurface::StackElement& e : s.elements()) {
    h.mix_string(e.board.name());
    h.mix_string(e.board.substrate().name());
    h.mix_f64(e.board.substrate().epsilon_r());
    h.mix_f64(e.board.substrate().loss_tangent());
    h.mix_f64(e.board.thickness_m());
    h.mix_f64(e.rotation.rad());
    h.mix_f64(e.gap_after_m);
    h.mix_u64(e.tunable ? 1 : 0);
  }
}

}  // namespace

common::Hasher64 link_config_prefix(common::PowerDbm tx_power,
                                    const channel::LinkGeometry& geometry,
                                    const channel::Antenna& tx_antenna,
                                    const channel::Environment& environment,
                                    const radio::ReceiverConfig& receiver,
                                    const metasurface::RotatorStack& stack,
                                    const channel::SceneSpec& scene) {
  common::Hasher64 h;
  // v2: the scene topology joined the configuration. v3: the rx antenna
  // moved to the digest tail (finish_link_config_hash) so servers can
  // memoize this prefix across per-round device re-orientation. v4: city
  // placed surfaces (+ their pruning tally) joined the scene topology.
  h.mix_string("llama-codebook-config-v4");
  h.mix_f64(tx_power.value());
  h.mix_f64(geometry.tx_rx_distance_m);
  h.mix_f64(geometry.tx_surface_distance_m);
  h.mix_u64(static_cast<std::uint64_t>(geometry.mode));
  mix_antenna(h, tx_antenna, /*include_orientation=*/true);
  h.mix_f64(environment.interference_floor().value());
  h.mix_f64(environment.interference_burst_std_db());
  h.mix_u64(environment.rays().size());
  for (const channel::MultipathRay& ray : environment.rays()) {
    h.mix_f64(ray.amplitude_scale);
    h.mix_f64(ray.phase_rad);
    h.mix_f64(ray.polarization_rotation.rad());
  }
  h.mix_f64(receiver.sample_rate_hz);
  h.mix_f64(receiver.tone_offset_hz);
  h.mix_f64(receiver.noise_figure.value());
  h.mix_f64(receiver.noise_bandwidth.in_hz());
  mix_stack(h, stack);
  // Scene topology: every non-home surface reshapes the power landscape.
  h.mix_u64(scene.leakage.size());
  for (const channel::LeakageSurfaceSpec& leak : scene.leakage) {
    h.mix_f64(leak.lateral_offset_m);
    h.mix_f64(leak.coupling);
  }
  h.mix_u64(scene.relays.size());
  for (const channel::RelaySurfaceSpec& relay : scene.relays) {
    h.mix_f64(relay.surface_surface_m);
    h.mix_f64(relay.relay_rx_m);
    h.mix_f64(relay.coupling);
  }
  h.mix_u64(scene.placed.size());
  for (const channel::PlacedLeakageSpec& placed : scene.placed) {
    h.mix_f64(placed.path_length_m);
    h.mix_f64(placed.coupling);
    h.mix_u64(static_cast<std::uint64_t>(placed.external_id));
  }
  // The pruning tally binds the codebook to the cutoff that built the
  // scene: two prunings of the same kept set are still distinct configs.
  h.mix_f64(scene.pruned_coupling_over_length);
  h.mix_u64(scene.pruned_count);
  return h;
}

std::uint64_t finish_link_config_hash(common::Hasher64 prefix,
                                      const channel::Antenna& rx_antenna) {
  // The rx orientation is the codebook's query axis — exclude it so a
  // tracked device re-orienting does not read as a configuration change.
  mix_antenna(prefix, rx_antenna, /*include_orientation=*/false);
  return prefix.digest();
}

std::uint64_t link_config_hash(common::PowerDbm tx_power,
                               const channel::LinkGeometry& geometry,
                               const channel::Antenna& tx_antenna,
                               const channel::Antenna& rx_antenna,
                               const channel::Environment& environment,
                               const radio::ReceiverConfig& receiver,
                               const metasurface::RotatorStack& stack,
                               const channel::SceneSpec& scene) {
  return finish_link_config_hash(
      link_config_prefix(tx_power, geometry, tx_antenna, environment,
                         receiver, stack, scene),
      rx_antenna);
}

std::uint64_t system_config_hash(const core::SystemConfig& cfg,
                                 const metasurface::RotatorStack& stack) {
  return link_config_hash(cfg.tx_power, cfg.geometry, cfg.tx_antenna,
                          cfg.rx_antenna, cfg.environment, cfg.receiver,
                          stack, cfg.scene);
}

std::uint64_t deployment_config_hash(const deploy::DeploymentConfig& cfg,
                                     const metasurface::RotatorStack& stack) {
  // Same canonical scene topology core::device_system_config bakes into a
  // mirrored per-device SystemConfig, so one codebook serves both paths.
  return link_config_hash(cfg.tx_power, cfg.geometry, cfg.tx_antenna,
                          cfg.rx_antenna, cfg.environment, cfg.receiver,
                          stack,
                          deploy::device_scene_spec(cfg.n_surfaces,
                                                    cfg.interference));
}

CodebookCompiler::CodebookCompiler(core::SystemConfig config,
                                   metasurface::Metasurface surface)
    : config_(std::move(config)), surface_(std::move(surface)) {}

void CompilerOptions::validate() const {
  const auto require = [](bool ok, const char* rule) {
    if (!ok)
      throw std::invalid_argument{std::string{"CompilerOptions: "} + rule};
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  // A stepped axis derives its count and needs max >= min; a count-based
  // axis needs a point and, past one, max > min.
  require(positive(f_min.in_hz()), "f_min must be finite and > 0 Hz");
  require(positive(f_max.in_hz()), "f_max must be finite and > 0 Hz");
  require(!f_step_hz || positive(*f_step_hz),
          "f_step_hz must be finite and > 0");
  require(f_step_hz || n_frequencies > 0, "n_frequencies must be >= 1");
  require(f_step_hz ? f_max.in_hz() >= f_min.in_hz()
                    : n_frequencies == 1 || f_max.in_hz() > f_min.in_hz(),
          "f_max must exceed f_min");
  require(!f_step_hz || common::stepped_range_fits(f_min.in_hz(),
                                                   f_max.in_hz(), *f_step_hz),
          "f_step_hz must leave fewer than 5e7 steps from f_min to f_max");
  require(std::isfinite(orientation_min.rad()),
          "orientation_min must be finite");
  require(std::isfinite(orientation_max.rad()),
          "orientation_max must be finite");
  require(!orientation_step || positive(orientation_step->rad()),
          "orientation_step must be finite and > 0");
  require(orientation_step || n_orientations > 0,
          "n_orientations must be >= 1");
  require(orientation_step
              ? orientation_max.rad() >= orientation_min.rad()
              : n_orientations == 1 ||
                    orientation_max.rad() > orientation_min.rad(),
          "orientation_max must exceed orientation_min");
  require(!orientation_step ||
              common::stepped_range_fits(orientation_min.rad(),
                                         orientation_max.rad(),
                                         orientation_step->rad()),
          "orientation_step must leave fewer than 5e7 steps from "
          "orientation_min to orientation_max");
  require(positive(v_step.value()), "v_step must be finite and > 0 V");
  require(std::isfinite(v_min.value()) && v_min.value() >= 0.0,
          "v_min must be finite and >= 0 V");
  require(std::isfinite(v_max.value()) &&
              v_max.value() <= control::PowerSupply{}.max_voltage().value(),
          "v_max must be finite and <= the supply's 30 V maximum");
  require(v_min.value() <= v_max.value(), "v_min must not exceed v_max");
  require(common::stepped_range_fits(v_min.value(), v_max.value(),
                                     v_step.value()),
          "v_step must leave fewer than 5e7 steps from v_min to v_max");
  // 1024 points per axis already fill the plane, so the axis is built only
  // when it is short enough to count cheaply.
  const auto plane_fits = [&] {
    if ((v_max.value() - v_min.value()) / v_step.value() >= 1024.0)
      return false;
    const std::size_t n = common::stepped_range(v_min.value(), v_max.value(),
                                                v_step.value())
                              .size();
    return n * n <= kMaxBiasPlaneCells;
  };
  require(plane_fits(),
          "v_step must leave the bias plane at most 2^20 cells (1024 x 1024) "
          "from v_min to v_max");
}

Codebook CodebookCompiler::compile(const CompilerOptions& options) const {
  options.validate();
  // Realize the lattice axes. A step-based axis is generated with
  // common::stepped_range — the same index-based grid the online sweeps
  // use (every point is min + i * step, never accumulated) — and its
  // count/upper edge are derived from the realized grid; a count-based
  // axis keeps the historical inclusive-linspace form.
  std::size_t n_f = options.n_frequencies;
  double f_min_hz = options.f_min.in_hz();
  double f_max_hz = options.f_max.in_hz();
  if (options.f_step_hz) {
    const std::vector<double> pts =
        common::stepped_range(f_min_hz, f_max_hz, *options.f_step_hz);
    n_f = pts.size();
    f_max_hz = pts.back();
  }
  std::size_t n_o = options.n_orientations;
  double o_min_rad = options.orientation_min.rad();
  double o_max_rad = options.orientation_max.rad();
  if (options.orientation_step) {
    const std::vector<double> pts = common::stepped_range(
        o_min_rad, o_max_rad, options.orientation_step->rad());
    n_o = pts.size();
    o_max_rad = pts.back();
  }

  const std::vector<double> vxs = common::stepped_range(
      options.v_min.value(), options.v_max.value(), options.v_step.value());
  const std::vector<double>& vys = vxs;
  const std::size_t grid_cells = vxs.size() * vys.size();

  Codebook::Header header;
  header.config_hash = system_config_hash(config_, surface_.stack());
  header.mode = config_.geometry.mode;
  header.frequency_hz.min = f_min_hz;
  header.frequency_hz.max = n_f == 1 ? f_min_hz : f_max_hz;
  header.frequency_hz.count = n_f;
  header.orientation_rad.min = o_min_rad;
  header.orientation_rad.max = n_o == 1 ? o_min_rad : o_max_rad;
  header.orientation_rad.count = n_o;
  header.v_min_v = options.v_min.value();
  header.v_max_v = options.v_max.value();
  header.v_step_v = options.v_step.value();
  // The best cell is stored separately; refinement holds runner-ups only,
  // bounded by both the bias grid and the format's refinement limit.
  header.top_k = std::min<std::uint64_t>(
      std::min<std::uint64_t>(options.top_k, grid_cells - 1), kMaxTopK);

  const radio::Receiver receiver{config_.receiver, common::Rng{0}};
  const double noise_mw = receiver.noise_floor_dbm().to_mw().value();
  std::vector<CellEntry> cells(n_f * n_o);

  for (std::size_t fi = 0; fi < n_f; ++fi) {
    const common::Frequency f{header.frequency_hz.at(fi)};
    // One batched Jones grid per frequency, evaluated through the SoA lane
    // kernels (src/kernel via response_grid): the surface response does not
    // depend on the device orientation, so every orientation cell below
    // re-projects this grid through its own propagation scene.
    const metasurface::JonesGrid responses =
        surface_.response_grid(f, header.mode, vxs, vys, options.threads);

    // Shard the orientation cells; each writes only its own slot and every
    // value is a pure function of the cell, so the lattice is byte-identical
    // for any thread count.
    common::parallel_for(n_o, options.threads, [&](std::size_t oi) {
      const common::Angle orientation =
          common::Angle::radians(header.orientation_rad.at(oi));
      // The compiled plane is the quiet-neighbor sweep plane: non-home
      // surfaces are frozen absent (exactly what the online sweeps probe),
      // but the scene topology still binds the codebook via config_hash.
      const channel::PropagationScene scene =
          channel::PropagationScene::from_spec(
              config_.tx_antenna, config_.rx_antenna.oriented(orientation),
              config_.geometry, config_.environment, config_.scene);
      const channel::PropagationScene::FrozenEval frozen =
          scene.freeze_except(channel::PropagationScene::kHomeSurface,
                              config_.tx_power, f,
                              channel::PropagationScene::ResponseView{});

      // Linear plane in FullGridSweep's scan order (vy outer, vx inner).
      std::vector<double> lin(grid_cells);
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        scene.received_mw_swept(
            frozen, responses[iy],
            std::span<double>{lin}.subspan(iy * vxs.size(), vxs.size()));

      // s*, the (K+1)-th largest linear power. NaN ranks first, so a plane
      // broken upstream reaches expected_measure, which rejects it.
      const std::size_t keep = static_cast<std::size_t>(header.top_k) + 1;
      std::vector<double> ranked = lin;
      std::nth_element(ranked.begin(),
                       ranked.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                       ranked.end(), [](double a, double b) {
                         return a > b || (std::isnan(a) && !std::isnan(b));
                       });
      const double s_star = ranked[keep - 1];
      // Candidates: every cell within the exactness margin of s* (see
      // compiler.h). Only they pay the dBm chain; each excluded cell reads
      // strictly below the K+1 cells at or above s*.
      const double floor_mw =
          s_star - (s_star + noise_mw + 1e-15) * kRankingMargin;
      std::vector<std::pair<double, std::size_t>> candidates;
      for (std::size_t flat = 0; flat < grid_cells; ++flat)
        if (!(lin[flat] < floor_mw))
          candidates.emplace_back(
              receiver
                  .expected_measure(common::PowerMw{lin[flat]}.to_dbm())
                  .value(),
              flat);

      LLAMA_INVARIANT(candidates.size() >= keep,
                      "every cell at or above s* is a candidate");
      // Top-(K+1) cells by measured power, scan order breaking ties — the
      // same winner FullGridSweep::run would report.
      std::partial_sort(
          candidates.begin(),
          candidates.begin() + static_cast<std::ptrdiff_t>(keep),
          candidates.end(), [](const auto& a, const auto& b) {
            if (a.first != b.first) return a.first > b.first;
            return a.second < b.second;
          });

      const auto to_point = [&](const std::pair<double, std::size_t>& c) {
        BiasPoint p;
        p.vx = common::Voltage{vxs[c.second % vxs.size()]};
        p.vy = common::Voltage{vys[c.second / vxs.size()]};
        p.predicted_power = common::PowerDbm{c.first};
        return p;
      };
      LLAMA_INVARIANT(fi * n_o + oi < cells.size(),
                      "shard writes only its own lattice slot");
      CellEntry& cell = cells[fi * n_o + oi];
      cell.best = to_point(candidates[0]);
      cell.refinement.reserve(keep - 1);
      for (std::size_t k = 1; k < keep; ++k)
        cell.refinement.push_back(to_point(candidates[k]));
      LLAMA_ENSURES(cell.refinement.size() == header.top_k,
                    "every cell carries exactly top_k refinement points");
    });
  }

  return Codebook{header, std::move(cells)};
}

}  // namespace llama::codebook
