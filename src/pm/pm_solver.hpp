#pragma once
// Serial PM (particle-mesh) long-range force solver over the full periodic
// mesh: assignment -> FFT -> Green multiply -> inverse FFT -> 4-point
// finite difference -> interpolation.  A reference, not a step-engine
// path: the parallel PM (direct and relay conversions) is verified against
// it, TreePmForce uses it as the long-range half of the oracle
// force, and the accuracy/assignment benches and energy diagnostics call
// it directly.

#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "pm/assign.hpp"
#include "pm/green.hpp"
#include "util/timer.hpp"
#include "util/vec3.hpp"

namespace greem::pm {

struct PmParams {
  std::size_t n_mesh = 64;
  double rcut = 0;  ///< 0 => default 3 / n_mesh (the paper's choice)
  Scheme scheme = Scheme::kTSC;
  int deconv_power = 2;            ///< kSimple Green only
  double G = 1.0;
  GreenKind green = GreenKind::kOptimal;

  double effective_rcut() const { return rcut > 0 ? rcut : 3.0 / static_cast<double>(n_mesh); }

  GreenParams green_params() const {
    return {n_mesh, effective_rcut(), scheme, deconv_power, G, green, 2};
  }
};

class PmSolver {
 public:
  explicit PmSolver(PmParams params);

  const PmParams& params() const { return params_; }

  /// Long-range accelerations added into `acc` (same length as pos).
  /// Phase timings (Table I rows) accumulate into `t` if given.
  void accelerations(std::span<const Vec3> pos, std::span<const double> mass,
                     std::span<Vec3> acc, TimingBreakdown* t = nullptr);

  /// Long-range potential energy per particle (TSC-interpolated mesh
  /// potential), for energy diagnostics.  Always solved with the physical
  /// (kSimple) Green's function: the optimal influence function is tuned
  /// for the finite-difference force pipeline and is not a potential.
  std::vector<double> potentials(std::span<const Vec3> pos, std::span<const double> mass);

  /// Mesh potential of the last accelerations() call (diagnostics/tests).
  const std::vector<double>& last_potential() const { return phi_; }

 private:
  std::vector<double> solve_potential(std::span<const Vec3> pos, std::span<const double> mass,
                                      TimingBreakdown* t, const std::vector<double>& green);

  PmParams params_;
  fft::Fft3dR2C fft_;                    ///< real-input transform (half flops)
  std::vector<double> green_;            ///< force-path multiplier table
  std::vector<double> green_physical_;   ///< potential-path table (kSimple), lazy
  std::vector<double> phi_;
};

}  // namespace greem::pm
