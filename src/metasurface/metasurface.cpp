#include "src/metasurface/metasurface.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/contracts.h"
#include "src/common/math_utils.h"

namespace llama::metasurface {

Metasurface::Metasurface(RotatorStack stack, LatticeSpec spec)
    : stack_(std::move(stack)), spec_(spec) {}

Metasurface::Metasurface(const Metasurface& other)
    : stack_(other.stack_),
      spec_(other.spec_),
      vx_(other.vx_),
      vy_(other.vy_),
      stuck_(other.stuck_) {
  if (other.cache_)
    cache_ = std::make_unique<ResponseCache>(other.cache_->config());
}

Metasurface& Metasurface::operator=(const Metasurface& other) {
  if (this == &other) return *this;
  stack_ = other.stack_;
  spec_ = other.spec_;
  vx_ = other.vx_;
  vy_ = other.vy_;
  stuck_ = other.stuck_;
  cache_ = other.cache_
               ? std::make_unique<ResponseCache>(other.cache_->config())
               : nullptr;
  transmission_plan_.reset();
  reflection_plan_.reset();
  return *this;
}

Metasurface Metasurface::llama_prototype() {
  return Metasurface{prototype_fr4_design()};
}

double checked_bias(double v, const char* what) {
  if (!std::isfinite(v))
    throw std::invalid_argument{std::string{what} + " must be finite"};
  return common::clamp(v, 0.0, 30.0);
}

namespace {

/// Clamp a raw bias axis to the supply range, matching set_bias.
std::vector<double> clamp_bias_lane(const std::vector<double>& values,
                                    const char* what) {
  std::vector<double> clamped(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    clamped[i] = checked_bias(values[i], what);
  return clamped;
}

}  // namespace

void Metasurface::set_bias(common::Voltage vx, common::Voltage vy) {
  const double x = checked_bias(vx.value(), "Metasurface: set_bias vx");
  const double y = checked_bias(vy.value(), "Metasurface: set_bias vy");
  vx_ = common::Voltage{x};
  vy_ = common::Voltage{y};
}

void Metasurface::set_stuck_cells(std::optional<StuckCellFault> fault) {
  if (fault) {
    if (!std::isfinite(fault->fraction) || !(fault->fraction > 0.0) ||
        fault->fraction > 1.0)
      throw std::invalid_argument{
          "Metasurface: stuck-cell fraction must lie in (0, 1]"};
    fault->vx = common::Voltage{
        checked_bias(fault->vx.value(), "Metasurface: stuck vx")};
    fault->vy = common::Voltage{
        checked_bias(fault->vy.value(), "Metasurface: stuck vy")};
  }
  stuck_ = fault;
}

void Metasurface::enable_response_cache(ResponseCacheConfig config) {
  cache_ = std::make_unique<ResponseCache>(config);
}

std::optional<ResponseCacheStats> Metasurface::response_cache_stats() const {
  if (!cache_) return std::nullopt;
  return cache_->stats();
}

const RotatorStack::TransmissionPlan& Metasurface::acquire_transmission_plan(
    common::Frequency f) const {
  if (!transmission_plan_ || transmission_plan_->first != f.in_hz())
    transmission_plan_.emplace(f.in_hz(), stack_.plan_transmission(f));
  return transmission_plan_->second;
}

const RotatorStack::ReflectionPlan& Metasurface::acquire_reflection_plan(
    common::Frequency f) const {
  if (!reflection_plan_ || reflection_plan_->first != f.in_hz())
    reflection_plan_.emplace(f.in_hz(), stack_.plan_reflection(f));
  return reflection_plan_->second;
}

em::JonesMatrix Metasurface::planned_response(common::Frequency f,
                                              SurfaceMode mode,
                                              common::Voltage vx,
                                              common::Voltage vy) const {
  if (mode == SurfaceMode::kTransmissive)
    return stack_.transmission(acquire_transmission_plan(f), vx, vy);
  return stack_.reflection(acquire_reflection_plan(f), vx, vy);
}

em::JonesMatrix Metasurface::response(common::Frequency f,
                                      SurfaceMode mode) const {
  const em::JonesMatrix healthy = healthy_response(f, mode);
  if (!stuck_) return healthy;
  // Coherent sub-aperture mixture: the stuck fraction keeps radiating at
  // its frozen bias. Mixing happens outside the cache, which memoizes only
  // the pure healthy responses.
  LLAMA_INVARIANT(stuck_->fraction > 0.0 && stuck_->fraction <= 1.0,
                  "set_stuck_cells admits only fractions in (0, 1]");
  const em::JonesMatrix stuck =
      planned_response(f, mode, stuck_->vx, stuck_->vy);
  return em::Complex{1.0 - stuck_->fraction, 0.0} * healthy +
         em::Complex{stuck_->fraction, 0.0} * stuck;
}

em::JonesMatrix Metasurface::healthy_response(common::Frequency f,
                                              SurfaceMode mode) const {
  if (cache_) {
    // Cached path: evaluate at the quantized bias so every cache cell is a
    // pure function of its key (see the contract in response_cache.h).
    const common::Voltage vxq = cache_->quantize(vx_);
    const common::Voltage vyq = cache_->quantize(vy_);
    const ResponseCache::Key key =
        cache_->make_key(f, vxq, vyq, static_cast<int>(mode));
    if (auto hit = cache_->find(key)) return *hit;
    const em::JonesMatrix j = planned_response(f, mode, vxq, vyq);
    cache_->insert(key, j);
    return j;
  }
  return planned_response(f, mode, vx_, vy_);
}

namespace {

/// Lane-space degraded blend from a stuck-cell fault. `stuck` is the stuck
/// sub-aperture's response — a single scalar planned evaluation (the golden
/// path); only the per-cell mixing happens inside the kernels.
kernel::StuckBlend make_stuck_blend(const StuckCellFault& fault,
                                    const em::JonesMatrix& stuck) {
  kernel::StuckBlend blend;
  blend.keep = em::Complex{1.0 - fault.fraction, 0.0};
  blend.frac = em::Complex{fault.fraction, 0.0};
  blend.stuck = stuck;
  return blend;
}

}  // namespace

JonesGrid Metasurface::response_grid(common::Frequency f, SurfaceMode mode,
                                     const std::vector<double>& vx_values,
                                     const std::vector<double>& vy_values,
                                     int threads) const {
  JonesGrid grid(vy_values.size(),
                 std::vector<em::JonesMatrix>(vx_values.size()));
  if (vx_values.empty() || vy_values.empty()) return grid;
  const std::vector<double> vxs =
      clamp_bias_lane(vx_values, "Metasurface: response_grid vx_values");
  const std::vector<double> vys =
      clamp_bias_lane(vy_values, "Metasurface: response_grid vy_values");
  // Evaluate the stuck response before handing out plan references: it may
  // (re)build the memoized plan slot for this (f, mode).
  std::optional<kernel::StuckBlend> blend;
  if (stuck_)
    blend = make_stuck_blend(
        *stuck_, planned_response(f, mode, stuck_->vx, stuck_->vy));
  std::vector<em::JonesMatrix*> rows(grid.size());
  for (std::size_t iy = 0; iy < grid.size(); ++iy) rows[iy] = grid[iy].data();
  // The plan is acquired ONCE per call; the kernel factors it into SoA lanes
  // at construction and the sharded rows only read both by const-ref.
  evaluate_plane(
      stack_, mode,
      [&]() -> const auto& { return acquire_transmission_plan(f); },
      [&]() -> const auto& { return acquire_reflection_plan(f); }, vxs, vys,
      blend ? &*blend : nullptr, threads, rows);
  LLAMA_ENSURES(grid.size() == vy_values.size() &&
                    (grid.empty() || grid.front().size() == vx_values.size()),
                "bias-plane grid shape matches the requested axes");
  return grid;
}

common::Angle Metasurface::rotation_angle(common::Frequency f) const {
  return em::rotation_angle_of(
      planned_response(f, SurfaceMode::kTransmissive, vx_, vy_));
}

double Metasurface::dc_power_w() const {
  return (vx_.value() + vy_.value()) * spec_.leakage_current_a;
}

CostBreakdown Metasurface::cost() const {
  CostBreakdown c;
  c.varactors_usd = static_cast<double>(spec_.varactor_count) *
                    spec_.varactor_unit_cost_usd;
  c.pcb_usd = spec_.pcb_cost_usd;
  c.total_usd = c.varactors_usd + c.pcb_usd;
  c.per_unit_usd =
      spec_.unit_count > 0
          ? c.total_usd / static_cast<double>(spec_.unit_count)
          : 0.0;
  return c;
}

}  // namespace llama::metasurface
