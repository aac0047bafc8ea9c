#include "src/metasurface/metasurface.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/common/parallel.h"
#include "src/kernel/jones_kernels.h"

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

/// Fixed pair-chunk size for response_batch: the work decomposition is part
/// of the byte-determinism contract (it must not depend on the worker
/// count), and chunks amortize the kernel's per-call scratch allocation.
constexpr std::size_t kPairChunk = 256;

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
  if (mode == SurfaceMode::kTransmissive) {
    // Plan acquired ONCE per (f, mode); the kernel factors it into SoA
    // lanes at construction and the sharded loop below only reads both by
    // const-ref.
    const RotatorStack::TransmissionPlan& plan = acquire_transmission_plan(f);
    kernel::TransmissionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership: parallel_for hands each shard a disjoint set of row
    // indices; shard iy writes only grid[iy], the kernel is shared
    // read-only, and eval scratch is call-local — so the plane is
    // byte-identical for any thread count.
    common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
      k.eval_grid_row(iy, grid[iy].data());
    });
  } else {
    const RotatorStack::ReflectionPlan& plan = acquire_reflection_plan(f);
    kernel::ReflectionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership as above: shard iy writes only grid[iy].
    common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
      k.eval_grid_row(iy, grid[iy].data());
    });
  }
  LLAMA_ENSURES(grid.size() == vy_values.size() &&
                    (grid.empty() || grid.front().size() == vx_values.size()),
                "bias-plane grid shape matches the requested axes");
  return grid;
}

std::vector<em::JonesMatrix> Metasurface::response_batch(
    common::Frequency f, SurfaceMode mode, const BiasList& points,
    int threads) const {
  std::vector<em::JonesMatrix> out(points.size());
  if (points.empty()) return out;
  std::vector<double> vxs(points.size());
  std::vector<double> vys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    vxs[i] = checked_bias(points[i].first.value(),
                          "Metasurface: response_batch vx");
    vys[i] = checked_bias(points[i].second.value(),
                          "Metasurface: response_batch vy");
  }
  std::optional<kernel::StuckBlend> blend;
  if (stuck_)
    blend = make_stuck_blend(
        *stuck_, planned_response(f, mode, stuck_->vx, stuck_->vy));
  const std::size_t chunks = (points.size() + kPairChunk - 1) / kPairChunk;
  if (mode == SurfaceMode::kTransmissive) {
    const RotatorStack::TransmissionPlan& plan = acquire_transmission_plan(f);
    kernel::TransmissionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership: chunk c writes only out[c*kPairChunk .. end); the
    // chunk grid is fixed, so results are byte-identical for any thread
    // count.
    common::parallel_for(chunks, threads, [&](std::size_t c) {
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(begin + kPairChunk, points.size());
      k.eval_pairs(begin, end, out.data() + begin);
    });
  } else {
    const RotatorStack::ReflectionPlan& plan = acquire_reflection_plan(f);
    kernel::ReflectionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership as above: chunk c writes only its own out range.
    common::parallel_for(chunks, threads, [&](std::size_t c) {
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(begin + kPairChunk, points.size());
      k.eval_pairs(begin, end, out.data() + begin);
    });
  }
  LLAMA_ENSURES(out.size() == points.size(),
                "batched responses line up with the requested bias list");
  return out;
}

common::Angle Metasurface::rotation_angle(common::Frequency f) const {
  return em::rotation_angle_of(
      planned_response(f, SurfaceMode::kTransmissive, vx_, vy_));
}

double Metasurface::transmission_efficiency_db(common::Frequency f,
                                               bool y_excitation) const {
  return metasurface::transmission_efficiency_db(
      planned_response(f, SurfaceMode::kTransmissive, vx_, vy_),
      y_excitation);
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
