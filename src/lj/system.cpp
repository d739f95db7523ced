#include "lj/system.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace rsd::lj {

namespace {

/// Atoms per force-loop work item. The chunking is fixed, not derived from
/// the pool width, and the per-chunk partials are added in chunk order, so
/// the potential and pair count are bit-identical at any width.
constexpr std::int64_t kAtomsPerChunk = 64;

}  // namespace

System::System(int cells, const LjParams& params, exec::Pool& pool) : params_(params) {
  RSD_ASSERT(cells >= 1);
  RSD_ASSERT(params_.density > 0.0);
  RSD_ASSERT(params_.cutoff > 0.0);
  init_lattice(cells);
  init_velocities();
  cut2_ = params_.cutoff * params_.cutoff;
  // Shift so the potential is zero at the cutoff (energy conservation).
  const double inv_rc6 = 1.0 / std::pow(params_.cutoff, 6);
  e_shift_ = 4.0 * (inv_rc6 * inv_rc6 - inv_rc6);
  compute_forces(pool);
}

void System::init_lattice(int cells) {
  const auto n = static_cast<std::int64_t>(4) * cells * cells * cells;
  const double volume = static_cast<double>(n) / params_.density;
  box_ = std::cbrt(volume);
  const double a = box_ / static_cast<double>(cells);

  static constexpr double kBasis[4][3] = {
      {0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};

  pos_.reserve(static_cast<std::size_t>(n));
  for (int ix = 0; ix < cells; ++ix) {
    for (int iy = 0; iy < cells; ++iy) {
      for (int iz = 0; iz < cells; ++iz) {
        for (const auto& b : kBasis) {
          pos_.push_back(Vec3{(static_cast<double>(ix) + b[0]) * a,
                              (static_cast<double>(iy) + b[1]) * a,
                              (static_cast<double>(iz) + b[2]) * a});
        }
      }
    }
  }
  vel_.assign(pos_.size(), Vec3{});
  force_.assign(pos_.size(), Vec3{});
}

void System::init_velocities() {
  Rng rng{params_.seed};
  const double sigma = std::sqrt(params_.temperature);
  for (auto& v : vel_) {
    v = Vec3{rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
  }
  // Zero the centre-of-mass momentum.
  Vec3 p = net_momentum();
  const double inv_n = 1.0 / static_cast<double>(vel_.size());
  for (auto& v : vel_) v -= p * inv_n;
  // Rescale to the exact target temperature.
  const double t_now = temperature();
  if (t_now > 0.0) {
    const double scale = std::sqrt(params_.temperature / t_now);
    for (auto& v : vel_) v *= scale;
  }
}

Vec3 System::minimum_image(Vec3 d) const {
  d.x -= box_ * std::round(d.x / box_);
  d.y -= box_ * std::round(d.y / box_);
  d.z -= box_ * std::round(d.z / box_);
  return d;
}

void System::build_cells() {
  grid_ = static_cast<int>(box_ / params_.cutoff);
  if (grid_ < 3) return;  // linked cells need >=3 cells/dim under PBC
  cell_len_ = box_ / static_cast<double>(grid_);
  const auto ncells = static_cast<std::size_t>(grid_) * grid_ * grid_;
  cell_atoms_.assign(ncells, {});
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    auto idx = [&](double c) {
      int k = static_cast<int>(c / cell_len_);
      if (k < 0) k = 0;
      if (k >= grid_) k = grid_ - 1;
      return k;
    };
    const int cx = idx(pos_[i].x);
    const int cy = idx(pos_[i].y);
    const int cz = idx(pos_[i].z);
    cell_atoms_[(static_cast<std::size_t>(cx) * grid_ + cy) * grid_ + cz].push_back(
        static_cast<std::int32_t>(i));
  }
}

void System::compute_forces(exec::Pool& pool) {
  build_cells();
  if (grid_ < 3) {
    compute_forces_reference();
    return;
  }

  const auto n = static_cast<std::int64_t>(pos_.size());
  const auto wrap = [this](int k) { return (k + grid_) % grid_; };
  struct Partial {
    double potential = 0.0;
    std::int64_t pairs = 0;
  };
  std::vector<Partial> partials(
      static_cast<std::size_t>((n + kAtomsPerChunk - 1) / kAtomsPerChunk));

  pool.parallel_for(partials.size(), [&](std::size_t chunk) {
    const auto first = static_cast<std::int64_t>(chunk) * kAtomsPerChunk;
    const std::int64_t last = std::min(n, first + kAtomsPerChunk);
    Partial part;
    for (std::int64_t i = first; i < last; ++i) {
      const Vec3 pi = pos_[static_cast<std::size_t>(i)];
      const int cx = std::min(static_cast<int>(pi.x / cell_len_), grid_ - 1);
      const int cy = std::min(static_cast<int>(pi.y / cell_len_), grid_ - 1);
      const int cz = std::min(static_cast<int>(pi.z / cell_len_), grid_ - 1);

      Vec3 f{};
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dz = -1; dz <= 1; ++dz) {
            const auto cell =
                (static_cast<std::size_t>(wrap(cx + dx)) * grid_ + wrap(cy + dy)) * grid_ +
                wrap(cz + dz);
            for (const std::int32_t j : cell_atoms_[cell]) {
              if (j == i) continue;
              const Vec3 d = minimum_image(pi - pos_[static_cast<std::size_t>(j)]);
              const double r2 = d.norm2();
              if (r2 >= cut2_) continue;
              const double inv_r2 = 1.0 / r2;
              const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
              const double inv_r12 = inv_r6 * inv_r6;
              f += d * (24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2);
              // Each unordered pair is visited twice; halve the shares.
              part.potential += 0.5 * (4.0 * (inv_r12 - inv_r6) - e_shift_);
              ++part.pairs;
            }
          }
        }
      }
      force_[static_cast<std::size_t>(i)] = f;
    }
    partials[chunk] = part;
  });

  double potential = 0.0;
  std::int64_t pairs = 0;
  for (const Partial& part : partials) {
    potential += part.potential;
    pairs += part.pairs;
  }
  potential_ = potential;
  last_pairs_ = pairs / 2;
}

void System::compute_forces_reference() {
  const std::size_t n = pos_.size();
  std::fill(force_.begin(), force_.end(), Vec3{});
  potential_ = 0.0;
  last_pairs_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Vec3 d = minimum_image(pos_[i] - pos_[j]);
      const double r2 = d.norm2();
      if (r2 >= cut2_) continue;
      const double inv_r2 = 1.0 / r2;
      const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
      const double inv_r12 = inv_r6 * inv_r6;
      const Vec3 f = d * (24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2);
      force_[i] += f;
      force_[j] -= f;
      potential_ += 4.0 * (inv_r12 - inv_r6) - e_shift_;
      ++last_pairs_;
    }
  }
}

StepWork System::step(exec::Pool& pool) {
  const double half_dt = 0.5 * params_.dt;
  const std::size_t n = pos_.size();

  for (std::size_t k = 0; k < n; ++k) {
    vel_[k] += force_[k] * half_dt;
    pos_[k] += vel_[k] * params_.dt;
    // Wrap into the primary box.
    pos_[k].x -= box_ * std::floor(pos_[k].x / box_);
    pos_[k].y -= box_ * std::floor(pos_[k].y / box_);
    pos_[k].z -= box_ * std::floor(pos_[k].z / box_);
  }

  compute_forces(pool);

  for (std::size_t k = 0; k < n; ++k) vel_[k] += force_[k] * half_dt;

  return StepWork{last_pairs_, atom_count()};
}

StepWork System::run(int n, exec::Pool& pool) {
  StepWork total;
  for (int i = 0; i < n; ++i) {
    const StepWork w = step(pool);
    total.pair_interactions += w.pair_interactions;
    total.atoms += w.atoms;
  }
  return total;
}

double System::kinetic_energy() const {
  double ke = 0.0;
  for (const auto& v : vel_) ke += 0.5 * v.norm2();
  return ke;
}

double System::temperature() const {
  const auto n = static_cast<double>(vel_.size());
  if (n < 2) return 0.0;
  return 2.0 * kinetic_energy() / (3.0 * (n - 1.0));
}

Vec3 System::net_momentum() const {
  Vec3 p{};
  for (const auto& v : vel_) p += v;
  return p;
}

}  // namespace rsd::lj
