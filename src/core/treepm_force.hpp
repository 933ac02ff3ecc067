#pragma once
// Serial TreePM force module: short-range Barnes-Hut walk with the gP3M
// cutoff (over the 27 periodic images, pruned by rcut) plus the PM
// long-range solve.  A test oracle, not a step engine: core_test checks it
// against Ewald, and parallel_sim_test checks the forces of
// ParallelSimulation (the one engine every driver steps with, on one rank
// or many) against it.  Also the force of the accuracy benches and the
// energy diagnostics.

#include <memory>
#include <span>

#include "pm/pm_solver.hpp"
#include "tree/traversal.hpp"
#include "util/timer.hpp"
#include "util/vec3.hpp"

namespace greem::core {

struct TreePmParams {
  pm::PmParams pm;            ///< mesh size, rcut (0 => 3/n_mesh), scheme
  double theta = 0.5;
  std::uint32_t ncrit = 64;   ///< group size <Ni>
  std::uint32_t leaf_capacity = 8;
  double eps = 0.0;           ///< Plummer softening (<< rcut)
  tree::KernelKind kernel = tree::KernelKind::kPhantom;

  double rcut() const { return pm.effective_rcut(); }
};

class TreePmForce {
 public:
  explicit TreePmForce(TreePmParams params);

  const TreePmParams& params() const { return params_; }

  /// Long-range (PM) accelerations added into acc.
  void long_range(std::span<const Vec3> pos, std::span<const double> mass,
                  std::span<Vec3> acc, TimingBreakdown* t = nullptr);

  /// Short-range (tree + cutoff kernel) accelerations added into acc.
  tree::TraversalStats short_range(std::span<const Vec3> pos, std::span<const double> mass,
                                   std::span<Vec3> acc, TimingBreakdown* t = nullptr);

  /// Convenience: total = short + long.
  tree::TraversalStats total(std::span<const Vec3> pos, std::span<const double> mass,
                             std::span<Vec3> acc, TimingBreakdown* t = nullptr);

 private:
  TreePmParams params_;
  pm::PmSolver pm_;
};

}  // namespace greem::core
