#include "src/channel/propagation_scene.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/constants.h"
#include "src/common/contracts.h"

namespace llama::channel {

namespace {

using em::Complex;
using em::JonesMatrix;
using em::JonesVector;

Complex path_coefficient(const PropagationPath& p, common::Frequency f) {
  // One Friis amplitude plus carrier phase over the path's total length.
  Complex c = propagation_factor(f, p.length_m);
  // Unit factors are skipped: the single-link terms then round exactly as
  // the pinned single-link outputs were recorded.
  if (p.pattern_scale != 1.0) c = c * p.pattern_scale;
  if (p.coupling_scale != 1.0) c = c * p.coupling_scale;
  if (p.excess_phase_rad != 0.0)
    c = c * std::exp(Complex{0.0, -p.excess_phase_rad});
  return c;
}

const JonesMatrix* resp(PropagationScene::ResponseView responses,
                        std::size_t surface) {
  return surface < responses.size() ? responses[surface] : nullptr;
}

/// Mean co-polar transmission of a surface response — the amplitude scale
/// environmental rays pick up crossing a transmissive surface.
double mean_copolar(const JonesMatrix& r) {
  return 0.5 * (std::abs(r.at(0, 0)) + std::abs(r.at(1, 1)));
}

/// Field at the receiver with the swept surface at `response` and every
/// other contribution as frozen: the one body of received_power_swept and
/// received_mw_swept. Forced inline: the Algorithm-1 rounds call
/// received_power_swept once per bias cell.
[[gnu::always_inline]] inline JonesVector swept_field(
    const PropagationScene::FrozenEval& frozen, const JonesMatrix& response) {
  JonesVector field = frozen.fixed_total;
  for (const PropagationScene::FrozenEval::SweptTerm& term : frozen.terms) {
    JonesVector v = response * term.state;
    if (term.has_post) v = term.post * v;
    field = field + term.scale * v;
  }
  if (frozen.has_multipath) {
    const double ray_scale = frozen.swept_scales_rays
                                 ? mean_copolar(response)
                                 : frozen.frozen_ray_scale;
    field = combine_multipath(field, frozen.rays,
                              frozen.ray_ref_base * ray_scale);
  }
  return field;
}

}  // namespace

double LinkGeometry::rx_surface_distance_m() const {
  if (mode == metasurface::SurfaceMode::kTransmissive)
    return std::max(tx_rx_distance_m - tx_surface_distance_m, 1e-3);
  // Reflective: surface sits on the perpendicular bisector of the
  // transceiver pair (paper Section 5.2.1), so both legs are equal.
  const double half = tx_rx_distance_m / 2.0;
  return std::sqrt(tx_surface_distance_m * tx_surface_distance_m +
                   half * half);
}

double LinkGeometry::surface_path_m() const {
  if (mode == metasurface::SurfaceMode::kTransmissive)
    return tx_rx_distance_m;
  return 2.0 * rx_surface_distance_m();
}

PropagationScene::PropagationScene(Antenna tx_antenna, Antenna rx_antenna,
                                   LinkGeometry home_geometry,
                                   Environment environment, SceneSpec spec)
    : tx_(std::move(tx_antenna)),
      rx_(std::move(rx_antenna)),
      geometry_(home_geometry),
      env_(std::move(environment)),
      spec_(std::move(spec)) {
  rebuild_paths();
}

PropagationScene PropagationScene::single_link(Antenna tx_antenna,
                                               Antenna rx_antenna,
                                               LinkGeometry geometry,
                                               Environment environment) {
  return PropagationScene{std::move(tx_antenna), std::move(rx_antenna),
                          geometry, std::move(environment), SceneSpec{}};
}

PropagationScene PropagationScene::from_spec(Antenna tx_antenna,
                                             Antenna rx_antenna,
                                             LinkGeometry geometry,
                                             Environment environment,
                                             SceneSpec spec) {
  return PropagationScene{std::move(tx_antenna), std::move(rx_antenna),
                          geometry, std::move(environment), std::move(spec)};
}

void PropagationScene::set_geometry(const LinkGeometry& g) {
  geometry_ = g;
  ++revision_;
  ++structural_revision_;
  rebuild_paths();
}

void PropagationScene::set_tx_antenna(Antenna a) {
  tx_ = std::move(a);
  ++revision_;
  ++structural_revision_;
  rebuild_paths();
}

void PropagationScene::set_rx_antenna(Antenna a) {
  rx_ = std::move(a);
  // Deliberately not a structural_revision_ bump: re-orienting the tracked
  // device must keep structural memos (codebook hash prefix) warm.
  ++revision_;
  rebuild_paths();
}

void PropagationScene::rebuild_paths() {
  paths_.clear();
  const bool transmissive =
      geometry_.mode == metasurface::SurfaceMode::kTransmissive;
  const double tx_gain = tx_.boresight_gain().linear();
  const double rx_gain = rx_.boresight_gain().linear();

  if (transmissive) {
    // Endpoints face each other; the home surface spans the direct path, so
    // the LoS term IS the surface term (free-space when unprogrammed).
    PropagationPath home;
    home.kind = PathKind::kSurface;
    home.surfaces = {kHomeSurface};
    home.length_m = geometry_.tx_rx_distance_m;
    paths_.push_back(std::move(home));
  } else {
    // Reflective (paper Fig. 14 right): both endpoints aim AT the surface,
    // so the bounced path is on boresight and the direct LoS sits off both
    // antennas' axes.
    const double boresight_to_los_rad = std::atan2(
        geometry_.tx_surface_distance_m, geometry_.tx_rx_distance_m / 2.0);
    const common::Angle los_off = common::Angle::radians(boresight_to_los_rad);
    PropagationPath direct;
    direct.kind = PathKind::kDirect;
    direct.length_m = geometry_.tx_rx_distance_m;
    direct.pattern_scale =
        std::sqrt(tx_.gain_towards(los_off).linear() / tx_gain) *
        std::sqrt(rx_.gain_towards(los_off).linear() / rx_gain);
    paths_.push_back(std::move(direct));

    PropagationPath home;
    home.kind = PathKind::kSurface;
    home.surfaces = {kHomeSurface};
    home.length_m = geometry_.surface_path_m();
    paths_.push_back(std::move(home));
  }

  // Non-home surfaces. Legs are measured from the endpoints to the home
  // surface's mount plane; a surface laterally offset by `o` sits at
  // hypot(leg, o) and an off-axis angle atan2(o, leg) from each endpoint's
  // aim.
  const double d_tx = transmissive ? geometry_.tx_surface_distance_m
                                   : geometry_.rx_surface_distance_m();
  const double d_rx = geometry_.rx_surface_distance_m();
  surface_count_ = 1;
  for (const LeakageSurfaceSpec& leak : spec_.leakage) {
    const std::size_t id = surface_count_++;
    const double o = leak.lateral_offset_m;
    PropagationPath p;
    p.kind = PathKind::kLeakage;
    p.surfaces = {id};
    p.length_m = std::hypot(d_tx, o) + std::hypot(d_rx, o);
    p.pattern_scale =
        std::sqrt(tx_.gain_towards(common::Angle::radians(std::atan2(o, d_tx)))
                      .linear() /
                  tx_gain) *
        std::sqrt(rx_.gain_towards(common::Angle::radians(std::atan2(o, d_rx)))
                      .linear() /
                  rx_gain);
    p.coupling_scale = leak.coupling;
    paths_.push_back(std::move(p));
  }
  // City-placed surfaces: geometry already resolved against real mount
  // positions by build_city_scene_spec, endpoint patterns folded into the
  // conservative coupling model (pattern_scale stays 1, matching the
  // pruning bound's <= 1 assumption on both sides of the comparison).
  for (const PlacedLeakageSpec& placed : spec_.placed) {
    const std::size_t id = surface_count_++;
    PropagationPath p;
    p.kind = PathKind::kLeakage;
    p.surfaces = {id};
    p.length_m = placed.path_length_m;
    p.coupling_scale = placed.coupling;
    p.cell = placed.cell;
    paths_.push_back(std::move(p));
  }
  for (const RelaySurfaceSpec& relay : spec_.relays) {
    const std::size_t id = surface_count_++;
    PropagationPath p;
    p.kind = PathKind::kRelay;
    p.surfaces = {kHomeSurface, id};
    p.length_m = d_tx + relay.surface_surface_m + relay.relay_rx_m;
    p.coupling_scale = relay.coupling;
    paths_.push_back(std::move(p));
  }

  LLAMA_ENSURES(!paths_.empty() && surface_count_ >= 1,
                "a rebuilt scene always carries the home-surface topology");
#if LLAMA_CONTRACTS_ARMED
  for (const PropagationPath& p : paths_)
    for (std::size_t s : p.surfaces)
      LLAMA_INVARIANT(s < surface_count_,
                      "every path references only scene surface ids");
#endif
}

em::JonesVector PropagationScene::launch_state(
    common::PowerDbm tx_power) const {
  const double p_mw = tx_power.to_mw().value();
  const double tx_gain = tx_.boresight_gain().linear();
  // sqrt(EIRP in mW): |field|^2 at the receiver is directly a power in mW.
  return Complex{std::sqrt(p_mw * tx_gain), 0.0} * tx_.polarization().jones();
}

bool PropagationScene::resolve_path_field(const PropagationPath& path,
                                          common::Frequency f,
                                          ResponseView responses,
                                          const em::JonesVector& tx_state,
                                          em::JonesVector& out) const {
  const Complex c = path_coefficient(path, f);
  const bool transmissive =
      geometry_.mode == metasurface::SurfaceMode::kTransmissive;
  switch (path.kind) {
    case PathKind::kDirect:
      out = c * tx_state;
      return true;
    case PathKind::kSurface: {
      const JonesMatrix* r = resp(responses, kHomeSurface);
      if (r == nullptr) {
        // Unprogrammed home surface: transmissive frames still span the
        // LoS (free-space pass-through); a reflective bounce needs a
        // programmed surface to exist at all.
        if (!transmissive) return false;
        out = c * tx_state;
        return true;
      }
      out = c * (*r * tx_state);
      return true;
    }
    case PathKind::kLeakage: {
      const JonesMatrix* r = resp(responses, path.surfaces.front());
      if (r == nullptr) return false;
      out = c * (*r * tx_state);
      return true;
    }
    case PathKind::kRelay: {
      const JonesMatrix* home = resp(responses, kHomeSurface);
      const JonesMatrix* relay = resp(responses, path.surfaces.back());
      if (relay == nullptr) return false;
      if (home == nullptr && !transmissive) return false;
      const JonesVector mid = home != nullptr ? *home * tx_state : tx_state;
      out = c * (*relay * mid);
      return true;
    }
  }
  return false;
}

double PropagationScene::multipath_reference(common::Frequency f) const {
  const common::Angle off = common::Angle::degrees(kMultipathOffAxisDeg);
  const double tx_gain = tx_.boresight_gain().linear();
  const double suppression =
      std::sqrt(tx_.gain_towards(off).linear() / tx_gain) *
      std::sqrt(rx_.gain_towards(off).linear() /
                rx_.boresight_gain().linear());
  return friis_amplitude(f, geometry_.tx_rx_distance_m) * suppression;
}

em::JonesVector PropagationScene::field_at_receiver(
    common::PowerDbm tx_power, common::Frequency f,
    ResponseView responses) const {
  const JonesVector tx_state = launch_state(tx_power);
  JonesVector at_rx{Complex{0.0, 0.0}, Complex{0.0, 0.0}};
  for (const PropagationPath& path : paths_) {
    JonesVector contribution;
    if (resolve_path_field(path, f, responses, tx_state, contribution))
      at_rx = at_rx + contribution;
  }
  if (env_.has_multipath()) {
    // Rays reference the home LoS; in the transmissive geometry they cross
    // the home surface like everything else (mean co-polar transmission).
    double ray_scale = 1.0;
    const JonesMatrix* home = resp(responses, kHomeSurface);
    if (geometry_.mode == metasurface::SurfaceMode::kTransmissive &&
        home != nullptr)
      ray_scale = mean_copolar(*home);
    at_rx = combine_multipath(at_rx, ray_terms(env_, tx_state),
                              multipath_reference(f) * ray_scale);
  }
  return at_rx;
}

em::JonesVector PropagationScene::field_at_receiver(
    common::PowerDbm tx_power, common::Frequency f,
    const metasurface::Metasurface* surface) const {
  if (surface == nullptr)
    return field_at_receiver(tx_power, f, ResponseView{});
  const JonesMatrix home = surface->response(f, geometry_.mode);
  const JonesMatrix* ptr = &home;
  return field_at_receiver(tx_power, f, ResponseView{&ptr, 1});
}

PropagationScene::ReceiveSide PropagationScene::receive_side() const {
  return ReceiveSide{rx_.polarization().jones(),
                     rx_.boresight_gain().linear(),
                     env_.interference_floor().to_mw().value()};
}

double PropagationScene::power_mw_from_field(const em::JonesVector& field,
                                             const ReceiveSide& rx) {
  const double plf = field.polarization_match(rx.state);
  double p_mw = field.power() * plf * rx.gain;
  // Ambient in-band interference adds incoherently at the receiver.
  p_mw += rx.interference_mw;
  return std::max(p_mw, 1e-15);
}

common::PowerDbm PropagationScene::received_power(
    common::PowerDbm tx_power, common::Frequency f,
    ResponseView responses) const {
  return common::PowerMw{
      power_mw_from_field(field_at_receiver(tx_power, f, responses),
                          receive_side())}
      .to_dbm();
}

common::PowerDbm PropagationScene::received_power_with_response(
    common::PowerDbm tx_power, common::Frequency f,
    const em::JonesMatrix& response) const {
  const JonesMatrix* ptr = &response;
  return received_power(tx_power, f, ResponseView{&ptr, 1});
}

common::PowerDbm PropagationScene::received_power_without_surface(
    common::PowerDbm tx_power, common::Frequency f) const {
  return received_power(tx_power, f, ResponseView{});
}

common::PowerMw PropagationScene::path_power(std::size_t path_index,
                                             common::PowerDbm tx_power,
                                             common::Frequency f,
                                             ResponseView responses) const {
  if (path_index >= paths_.size())
    throw std::out_of_range{"PropagationScene: path index out of range"};
  const JonesVector tx_state = launch_state(tx_power);
  JonesVector field;
  if (!resolve_path_field(paths_[path_index], f, responses, tx_state, field))
    return common::PowerMw{0.0};
  const double plf = rx_.polarization().match(field);
  return common::PowerMw{field.power() * plf *
                         rx_.boresight_gain().linear()};
}

PropagationScene::FrozenEval PropagationScene::freeze_except(
    std::size_t swept, common::PowerDbm tx_power, common::Frequency f,
    ResponseView frozen) const {
  if (swept >= surface_count_)
    throw std::out_of_range{"PropagationScene: swept surface out of range"};
  const bool transmissive =
      geometry_.mode == metasurface::SurfaceMode::kTransmissive;

  FrozenEval fz;
  fz.revision = revision_;
  fz.frequency_hz = f.in_hz();
  fz.tx_state = launch_state(tx_power);
  fz.rx = receive_side();
  fz.fixed_field = JonesVector{Complex{0.0, 0.0}, Complex{0.0, 0.0}};

  // Per-cell bucket lookup in first-encounter path order — a pure function
  // of the scene, so refreeze_cells can re-sum in the identical order.
  const auto cell_bucket = [&fz](std::int32_t cell) -> FrozenEval::CellField& {
    for (FrozenEval::CellField& cf : fz.cell_fields)
      if (cf.cell == cell) return cf;
    FrozenEval::CellField cf;
    cf.cell = cell;
    cf.field = JonesVector{Complex{0.0, 0.0}, Complex{0.0, 0.0}};
    fz.cell_fields.push_back(std::move(cf));
    return fz.cell_fields.back();
  };

  for (std::size_t pi = 0; pi < paths_.size(); ++pi) {
    const PropagationPath& path = paths_[pi];
    const bool traverses_swept =
        std::find(path.surfaces.begin(), path.surfaces.end(), swept) !=
        path.surfaces.end();
    if (!traverses_swept) {
      if (path.cell >= 0) {
        // Hierarchical aggregation: placed paths pre-sum per spatial cell
        // (the cell is re-summable alone when its surfaces retune).
        FrozenEval::CellField& bucket = cell_bucket(path.cell);
        bucket.path_indices.push_back(pi);
        JonesVector contribution;
        if (resolve_path_field(path, f, frozen, fz.tx_state, contribution))
          bucket.field = bucket.field + contribution;
        continue;
      }
      JonesVector contribution;
      if (resolve_path_field(path, f, frozen, fz.tx_state, contribution))
        fz.fixed_field = fz.fixed_field + contribution;
      continue;
    }
    FrozenEval::SweptTerm term;
    term.scale = path_coefficient(path, f);
    term.state = fz.tx_state;
    switch (path.kind) {
      case PathKind::kSurface:
      case PathKind::kLeakage:
        break;
      case PathKind::kRelay:
        if (swept == kHomeSurface) {
          // Swept home, frozen relay: the relay's cascade applies after.
          const JonesMatrix* relay = resp(frozen, path.surfaces.back());
          if (relay == nullptr) continue;  // relay absent: path dropped
          term.post = *relay;
          term.has_post = true;
        } else {
          // Swept relay, frozen home applied before.
          const JonesMatrix* home = resp(frozen, kHomeSurface);
          if (home == nullptr && !transmissive) continue;
          if (home != nullptr) term.state = *home * fz.tx_state;
        }
        break;
      case PathKind::kDirect:
        LLAMA_INVARIANT(false, "direct paths traverse no surface");
        break;
    }
    fz.terms.push_back(std::move(term));
  }

  fz.fixed_total = fz.fixed_field;
  for (const FrozenEval::CellField& cf : fz.cell_fields)
    fz.fixed_total = fz.fixed_total + cf.field;

  fz.has_multipath = env_.has_multipath();
  if (fz.has_multipath) {
    fz.rays = ray_terms(env_, fz.tx_state);
    fz.ray_ref_base = multipath_reference(f);
    if (transmissive) {
      if (swept == kHomeSurface) {
        fz.swept_scales_rays = true;
      } else {
        const JonesMatrix* home = resp(frozen, kHomeSurface);
        fz.frozen_ray_scale = home != nullptr ? mean_copolar(*home) : 1.0;
      }
    }
  }
  LLAMA_ENSURES(fz.revision == revision_,
                "a fresh freeze is stamped with the current scene revision");
  return fz;
}

void PropagationScene::require_fresh(const FrozenEval& frozen) const {
  if (frozen.revision != revision_)
    throw std::logic_error{
        "PropagationScene: frozen evaluation is stale — the scene mutated "
        "(set_geometry/set_tx_antenna/set_rx_antenna or an added surface) "
        "after freeze_except(); rebuild the frozen plan"};
}

common::PowerDbm PropagationScene::received_power_swept(
    const FrozenEval& frozen, const em::JonesMatrix& response) const {
  require_fresh(frozen);
  return common::PowerMw{
      power_mw_from_field(swept_field(frozen, response), frozen.rx)}
      .to_dbm();
}

void PropagationScene::received_mw_swept(
    const FrozenEval& frozen, std::span<const em::JonesMatrix> responses,
    std::span<double> out_mw) const {
  if (responses.size() != out_mw.size())
    throw std::invalid_argument{
        "PropagationScene: received_mw_swept needs one output per response"};
  require_fresh(frozen);
  for (std::size_t i = 0; i < responses.size(); ++i)
    out_mw[i] = power_mw_from_field(swept_field(frozen, responses[i]),
                                    frozen.rx);
}

void PropagationScene::refreeze_cells(FrozenEval& frozen,
                                      std::span<const std::int32_t> cells,
                                      ResponseView responses) const {
  if (frozen.revision != revision_)
    throw std::logic_error{
        "PropagationScene: frozen evaluation is stale — the scene mutated "
        "after freeze_except(); rebuild the frozen plan"};
  const common::Frequency f{frozen.frequency_hz};
  for (std::int32_t cell : cells) {
    for (FrozenEval::CellField& cf : frozen.cell_fields) {
      if (cf.cell != cell) continue;
      // Re-sum the cell's paths in their stored (path) order — the same
      // additions a fresh freeze performs, so the result is byte-identical.
      cf.field = JonesVector{Complex{0.0, 0.0}, Complex{0.0, 0.0}};
      for (std::size_t pi : cf.path_indices) {
        LLAMA_INVARIANT(pi < paths_.size(),
                        "frozen cell paths stay within the path table");
        JonesVector contribution;
        if (resolve_path_field(paths_[pi], f, responses, frozen.tx_state,
                               contribution))
          cf.field = cf.field + contribution;
      }
      break;
    }
  }
  frozen.fixed_total = frozen.fixed_field;
  for (const FrozenEval::CellField& cf : frozen.cell_fields)
    frozen.fixed_total = frozen.fixed_total + cf.field;
}

double PropagationScene::pruned_field_bound(common::PowerDbm tx_power,
                                            common::Frequency f) const {
  // Each pruned path contributes at most coupling * friis(f, len) *
  // pattern (<= 1) * ||R|| (<= 1, passive) * |launch|, and the receiver
  // projection is a contraction onto a unit polarization scaled by
  // sqrt(rx gain). friis_amplitude(f, len) = friis_amplitude(f, 1) / len,
  // so the tally of coupling/len closes the bound.
  const double launch =
      std::sqrt(tx_power.to_mw().value() * tx_.boresight_gain().linear());
  return spec_.pruned_coupling_over_length * friis_amplitude(f, 1.0) *
         launch * std::sqrt(rx_.boresight_gain().linear());
}

}  // namespace llama::channel
