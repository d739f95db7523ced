// A real Lennard-Jones molecular dynamics engine — the computational core
// of the LAMMPS LJ benchmark the paper profiles (Section III-D.1).
//
// Standard reduced-unit melt setup, matching LAMMPS's `in.lj`:
//   * fcc lattice at reduced density rho* = 0.8442 (4 atoms per unit cell,
//     so a "box size" of b lattice cells holds 4*b^3 atoms; the paper's
//     box 20 = 32,000 atoms),
//   * Maxwell velocities at T* = 1.44, zeroed net momentum,
//   * LJ 12-6 potential, cutoff r_c = 2.5 sigma, NVE velocity Verlet,
//     dt* = 0.005,
//   * linked-cell neighbor search, O(N) per step, forces fanned out over an
//     `exec::Pool` in fixed atom chunks, so every result is bit-identical at
//     any pool width.
//
// The engine is a runnable application in its own right; the LAMMPS
// workload generator in rsd::apps does not read it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "exec/pool.hpp"
#include "lj/vec3.hpp"

namespace rsd::lj {

struct LjParams {
  double density = 0.8442;     ///< Reduced density rho*.
  double temperature = 1.44;   ///< Initial reduced temperature T*.
  double cutoff = 2.5;         ///< Potential cutoff r_c (sigma units).
  double dt = 0.005;           ///< Verlet timestep (tau units).
  std::uint64_t seed = 87287;  ///< Velocity seed (LAMMPS in.lj default).
};

/// Work performed in one step.
struct StepWork {
  std::int64_t pair_interactions = 0;  ///< Pairs within cutoff (counted once).
  std::int64_t atoms = 0;
};

class System {
 public:
  /// Build an fcc lattice of `cells`^3 unit cells (4*cells^3 atoms).
  System(int cells, const LjParams& params = {}, exec::Pool& pool = exec::Pool::global());

  [[nodiscard]] std::int64_t atom_count() const { return static_cast<std::int64_t>(pos_.size()); }
  [[nodiscard]] double box_length() const { return box_; }
  [[nodiscard]] const LjParams& params() const { return params_; }

  [[nodiscard]] std::span<const Vec3> positions() const { return pos_; }
  [[nodiscard]] std::span<const Vec3> velocities() const { return vel_; }
  [[nodiscard]] std::span<const Vec3> forces() const { return force_; }

  /// One velocity-Verlet step; returns the work performed.
  StepWork step(exec::Pool& pool = exec::Pool::global());

  /// Run n steps; returns accumulated work.
  StepWork run(int n, exec::Pool& pool = exec::Pool::global());

  /// Recompute forces for the current positions (also done by step()).
  void compute_forces(exec::Pool& pool = exec::Pool::global());

  // --- Observables -------------------------------------------------------
  [[nodiscard]] double potential_energy() const { return potential_; }
  [[nodiscard]] double kinetic_energy() const;
  [[nodiscard]] double total_energy() const { return potential_energy() + kinetic_energy(); }
  /// Instantaneous reduced temperature: 2*KE / (3*(N-1)) (COM-free DOF).
  [[nodiscard]] double temperature() const;
  [[nodiscard]] Vec3 net_momentum() const;

  /// Pair count of the most recent force evaluation.
  [[nodiscard]] std::int64_t last_pair_count() const { return last_pairs_; }

  /// Brute-force O(N^2) force/energy reference (for validation tests).
  void compute_forces_reference();

 private:
  void init_lattice(int cells);
  void init_velocities();
  void build_cells();
  [[nodiscard]] Vec3 minimum_image(Vec3 d) const;

  LjParams params_;
  double box_ = 0.0;        ///< Cubic box edge length.
  double cut2_ = 0.0;       ///< cutoff^2.
  double e_shift_ = 0.0;    ///< Potential shift at the cutoff.
  std::vector<Vec3> pos_;
  std::vector<Vec3> vel_;
  std::vector<Vec3> force_;
  double potential_ = 0.0;
  std::int64_t last_pairs_ = 0;

  // Linked-cell grid.
  int grid_ = 0;            ///< Cells per dimension.
  double cell_len_ = 0.0;
  std::vector<std::vector<std::int32_t>> cell_atoms_;
};

}  // namespace rsd::lj
