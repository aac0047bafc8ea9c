#include "src/codebook/codebook.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "src/common/constants.h"
#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/common/serde.h"

namespace llama::codebook {

namespace {

/// 8-byte file magic; the trailing digit doubles as a format generation.
constexpr std::uint8_t kMagic[8] = {'L', 'L', 'A', 'M', 'A', 'C', 'B', 'K'};
constexpr std::uint32_t kVersion = 1;
/// Fixed byte counts of the format (layout is the contract, not structs).
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4 + 24 + 24 + 24 + 8;
constexpr std::size_t kPointBytes = 3 * 8;
constexpr std::size_t kTrailerBytes = 8;
/// Upper bound that keeps a hostile header from driving a giant allocation
/// (kMaxTopK in codebook.h bounds the refinement arm the same way).
constexpr std::size_t kMaxCells = std::size_t{1} << 24;

[[noreturn]] void fail(const std::string& what) {
  throw CodebookFormatError{"codebook: " + what};
}

void validate_axis(const AxisSpec& a, const char* name) {
  if (a.count == 0) fail(std::string{name} + " axis has zero points");
  if (!std::isfinite(a.min) || !std::isfinite(a.max))
    fail(std::string{name} + " axis bounds are not finite");
  if (a.count > 1 && !(a.max > a.min))
    fail(std::string{name} + " axis needs max > min for multiple points");
}

void validate_header(const Codebook::Header& h) {
  validate_axis(h.frequency_hz, "frequency");
  validate_axis(h.orientation_rad, "orientation");
  if (h.mode != metasurface::SurfaceMode::kTransmissive &&
      h.mode != metasurface::SurfaceMode::kReflective)
    fail("unknown surface mode");
  if (!std::isfinite(h.v_min_v) || !std::isfinite(h.v_max_v) ||
      !std::isfinite(h.v_step_v) || h.v_step_v <= 0.0 ||
      h.v_max_v < h.v_min_v)
    fail("invalid bias grid parameters");
  if (h.top_k > kMaxTopK) fail("top_k exceeds the format limit");
  if (h.frequency_hz.count > kMaxCells / h.orientation_rad.count)
    fail("lattice cell count exceeds the format limit");
}

/// Folds a polarization orientation into [0, pi): linear polarization is
/// pi-periodic, so 170 deg and -10 deg name the same physical state.
double fold_orientation(common::Angle orientation) {
  double o = std::fmod(orientation.rad(), common::kPi);
  if (o < 0.0) o += common::kPi;
  return o;
}

/// Rejects a non-finite query coordinate: a NaN survives locate()'s clamp
/// and its cast to an index is undefined behaviour.
void check_query(common::Frequency f, common::Angle orientation,
                 const char* who) {
  if (!std::isfinite(f.in_hz()))
    throw std::invalid_argument{std::string{who} +
                                ": frequency must be finite"};
  if (!std::isfinite(orientation.rad()))
    throw std::invalid_argument{std::string{who} +
                                ": orientation must be finite"};
}

/// Bracketing lattice indices and interpolation weight for a clamped value.
struct AxisPos {
  std::size_t i0 = 0;
  std::size_t i1 = 0;
  double t = 0.0;
};

AxisPos locate(const AxisSpec& a, double value) {
  LLAMA_EXPECTS(a.count >= 1, "axis has at least one lattice point");
  if (a.count == 1) return {};
  const double steps = static_cast<double>(a.count - 1);
  const double pos =
      common::clamp((value - a.min) / (a.max - a.min) * steps, 0.0, steps);
  AxisPos p;
  p.i0 = std::min(static_cast<std::size_t>(pos), a.count - 2);
  p.i1 = p.i0 + 1;
  p.t = pos - static_cast<double>(p.i0);
  LLAMA_ENSURES(p.i1 < a.count && p.t >= 0.0 && p.t <= 1.0,
                "bracketing indices lie on the axis with a unit weight");
  return p;
}

void put_point(common::ByteWriter& w, const BiasPoint& p) {
  w.f64(p.vx.value());
  w.f64(p.vy.value());
  w.f64(p.predicted_power.value());
}

BiasPoint get_point(common::ByteReader& r) {
  BiasPoint p;
  p.vx = common::Voltage{r.f64()};
  p.vy = common::Voltage{r.f64()};
  p.predicted_power = common::PowerDbm{r.f64()};
  return p;
}

}  // namespace

double AxisSpec::at(std::size_t i) const {
  LLAMA_EXPECTS(i < count || count <= 1, "lattice index lies on the axis");
  if (count <= 1) return min;
  // Index-based lattice, the same form as common::stepped_range (point =
  // min + i * step with one shared step). The historical (max - min) * i /
  // (count - 1) ordering rounded differently per index and could drift a
  // lattice point an ulp away from the sweep grid it was compiled against.
  const double step = (max - min) / static_cast<double>(count - 1);
  return min + static_cast<double>(i) * step;
}

Codebook::Codebook(Header header, std::vector<CellEntry> cells)
    : header_(header), cells_(std::move(cells)) {
  try {
    validate_header(header_);
  } catch (const CodebookFormatError& e) {
    throw std::invalid_argument{e.what()};
  }
  if (cells_.size() != header_.frequency_hz.count * header_.orientation_rad.count)
    throw std::invalid_argument{
        "codebook: cell count does not match the lattice dimensions"};
  for (const CellEntry& c : cells_)
    if (c.refinement.size() != header_.top_k)
      throw std::invalid_argument{
          "codebook: every cell must carry exactly top_k refinement points"};
}

const CellEntry& Codebook::cell(std::size_t fi, std::size_t oi) const {
  if (fi >= header_.frequency_hz.count || oi >= header_.orientation_rad.count)
    throw std::out_of_range{"codebook: cell index outside the lattice"};
  return cells_[fi * header_.orientation_rad.count + oi];
}

BiasPoint Codebook::lookup(common::Frequency f,
                           common::Angle orientation) const {
  check_query(f, orientation, "Codebook::lookup");
  const AxisPos pf = locate(header_.frequency_hz, f.in_hz());
  const AxisPos po =
      locate(header_.orientation_rad, fold_orientation(orientation));
  const std::size_t no = header_.orientation_rad.count;
  const BiasPoint& p00 = cells_[pf.i0 * no + po.i0].best;
  const BiasPoint& p01 = cells_[pf.i0 * no + po.i1].best;
  const BiasPoint& p10 = cells_[pf.i1 * no + po.i0].best;
  const BiasPoint& p11 = cells_[pf.i1 * no + po.i1].best;
  const auto blend = [&](double v00, double v01, double v10, double v11) {
    const double lo = common::lerp(v00, v01, po.t);
    const double hi = common::lerp(v10, v11, po.t);
    return common::lerp(lo, hi, pf.t);
  };
  BiasPoint out;
  out.vx = common::Voltage{blend(p00.vx.value(), p01.vx.value(),
                                 p10.vx.value(), p11.vx.value())};
  out.vy = common::Voltage{blend(p00.vy.value(), p01.vy.value(),
                                 p10.vy.value(), p11.vy.value())};
  out.predicted_power = common::PowerDbm{
      blend(p00.predicted_power.value(), p01.predicted_power.value(),
            p10.predicted_power.value(), p11.predicted_power.value())};
  LLAMA_ENSURES(out.vx.value() >= header_.v_min_v &&
                    out.vx.value() <= header_.v_max_v &&
                    out.vy.value() >= header_.v_min_v &&
                    out.vy.value() <= header_.v_max_v,
                "interpolated bias stays inside the compiled bias grid");
  return out;
}

const CellEntry& Codebook::nearest(common::Frequency f,
                                   common::Angle orientation) const {
  check_query(f, orientation, "Codebook::nearest");
  const AxisPos pf = locate(header_.frequency_hz, f.in_hz());
  const AxisPos po =
      locate(header_.orientation_rad, fold_orientation(orientation));
  const std::size_t fi = pf.t < 0.5 ? pf.i0 : pf.i1;
  const std::size_t oi = po.t < 0.5 ? po.i0 : po.i1;
  LLAMA_INVARIANT(fi * header_.orientation_rad.count + oi < cells_.size(),
                  "nearest cell lies inside the lattice");
  return cells_[fi * header_.orientation_rad.count + oi];
}

bool Codebook::covers_frequency(common::Frequency f) const {
  return f.in_hz() >= header_.frequency_hz.min &&
         f.in_hz() <= header_.frequency_hz.max;
}

RefinementWindow Codebook::refinement_window(const CellEntry& c) const {
  double lo_x = c.best.vx.value();
  double hi_x = lo_x;
  double lo_y = c.best.vy.value();
  double hi_y = lo_y;
  for (const BiasPoint& p : c.refinement) {
    lo_x = std::min(lo_x, p.vx.value());
    hi_x = std::max(hi_x, p.vx.value());
    lo_y = std::min(lo_y, p.vy.value());
    hi_y = std::max(hi_y, p.vy.value());
  }
  const double pad = header_.v_step_v;
  RefinementWindow w;
  w.vx_min = common::Voltage{
      common::clamp(lo_x - pad, header_.v_min_v, header_.v_max_v)};
  w.vx_max = common::Voltage{
      common::clamp(hi_x + pad, header_.v_min_v, header_.v_max_v)};
  w.vy_min = common::Voltage{
      common::clamp(lo_y - pad, header_.v_min_v, header_.v_max_v)};
  w.vy_max = common::Voltage{
      common::clamp(hi_y + pad, header_.v_min_v, header_.v_max_v)};
  LLAMA_ENSURES(w.vx_min.value() <= w.vx_max.value() &&
                    w.vy_min.value() <= w.vy_max.value(),
                "refinement window is an ordered box");
  return w;
}

std::vector<std::uint8_t> Codebook::serialize() const {
  common::ByteWriter w;
  w.bytes(kMagic);
  w.u32(kVersion);
  w.u64(header_.config_hash);
  w.u32(static_cast<std::uint32_t>(header_.mode));
  w.f64(header_.frequency_hz.min);
  w.f64(header_.frequency_hz.max);
  w.u64(header_.frequency_hz.count);
  w.f64(header_.orientation_rad.min);
  w.f64(header_.orientation_rad.max);
  w.u64(header_.orientation_rad.count);
  w.f64(header_.v_min_v);
  w.f64(header_.v_max_v);
  w.f64(header_.v_step_v);
  w.u64(header_.top_k);
  for (const CellEntry& c : cells_) {
    put_point(w, c.best);
    for (const BiasPoint& p : c.refinement) put_point(w, p);
  }
  common::ByteWriter out;
  out.bytes(w.data());
  out.u64(common::fnv1a64(w.data()));
  return out.data();
}

Codebook Codebook::deserialize(
    std::span<const std::uint8_t> bytes,
    std::optional<std::uint64_t> expected_config_hash) {
  if (bytes.size() < 8 + 4) fail("truncated header");
  for (std::size_t i = 0; i < 8; ++i)
    if (bytes[i] != kMagic[i]) fail("bad magic (not a codebook file)");

  Header h;
  std::size_t n_cells = 0;
  try {
    common::ByteReader r{bytes};
    std::uint8_t magic[8];
    r.bytes(magic);
    const std::uint32_t version = r.u32();
    if (version != kVersion)
      fail("unsupported version " + std::to_string(version));
    h.config_hash = r.u64();
    const std::uint32_t mode = r.u32();
    if (mode > 1) fail("unknown surface mode " + std::to_string(mode));
    h.mode = static_cast<metasurface::SurfaceMode>(mode);
    h.frequency_hz.min = r.f64();
    h.frequency_hz.max = r.f64();
    h.frequency_hz.count = r.u64();
    h.orientation_rad.min = r.f64();
    h.orientation_rad.max = r.f64();
    h.orientation_rad.count = r.u64();
    h.v_min_v = r.f64();
    h.v_max_v = r.f64();
    h.v_step_v = r.f64();
    h.top_k = r.u64();
    validate_header(h);

    n_cells = h.frequency_hz.count * h.orientation_rad.count;
    const std::size_t expected_size =
        kHeaderBytes +
        n_cells * (1 + static_cast<std::size_t>(h.top_k)) * kPointBytes +
        kTrailerBytes;
    if (bytes.size() < expected_size) fail("truncated body");
    if (bytes.size() > expected_size) fail("trailing bytes after checksum");

    // Verify the checksum before trusting the payload values.
    const std::uint64_t stored =
        common::ByteReader{bytes.subspan(bytes.size() - kTrailerBytes)}.u64();
    const std::uint64_t computed =
        common::fnv1a64(bytes.first(bytes.size() - kTrailerBytes));
    if (stored != computed) fail("checksum mismatch (corrupt file)");

    // Staleness is the expected common failure (config drift between
    // compile and load); reject it on the header alone, before paying the
    // full cell parse and allocation.
    if (expected_config_hash && *expected_config_hash != h.config_hash) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "codebook: stale — compiled for config hash %016llx, "
                    "live config hashes %016llx",
                    static_cast<unsigned long long>(h.config_hash),
                    static_cast<unsigned long long>(*expected_config_hash));
      throw CodebookStaleError{buf};
    }

    std::vector<CellEntry> cells;
    cells.reserve(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
      CellEntry c;
      c.best = get_point(r);
      c.refinement.reserve(static_cast<std::size_t>(h.top_k));
      for (std::uint64_t k = 0; k < h.top_k; ++k)
        c.refinement.push_back(get_point(r));
      cells.push_back(std::move(c));
    }
    return Codebook{h, std::move(cells)};
  } catch (const common::SerdeError& e) {
    fail(std::string{"truncated file ("} + e.what() + ")");
  }
}

void Codebook::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error{"codebook: cannot open " + path};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error{"codebook: short write to " + path};
}

Codebook Codebook::load(const std::string& path,
                        std::optional<std::uint64_t> expected_config_hash) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"codebook: cannot open " + path};
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                  std::istreambuf_iterator<char>{}};
  return deserialize(bytes, expected_config_hash);
}

}  // namespace llama::codebook
