#pragma once
// k-space Green's functions of the long-range (PM) force.
//
// The PM part must reproduce the S2 cloud-cloud pair force whose
// short-range complement is exactly gP3M (paper eq. 3); its continuum
// potential multiplier is
//
//   G(k) = -4 pi G / k^2 * s2(k rcut / 2)^2,    k = 2 pi |n|,
//
// with s2 the Fourier transform of the S2 cloud shape (pp::s2_fourier).
//
// Two discrete realizations are provided:
//
//  * kSimple -- G(k) divided by the assignment window W(k)^p
//    (p = deconv_power, compensating density assignment and force
//    interpolation).  Cheap but leaves percent-level aliasing error near
//    the mesh scale.
//
//  * kOptimal (default) -- the Hockney & Eastwood optimal influence
//    function for the S2 reference force, the choice of the P3M/GreeM
//    lineage: it minimizes the mean-square force error over particle
//    positions given the TSC assignment window U, the 4-point finite
//    difference operator D, and aliasing:
//
//      G_opt(k) = - sum_a d_a(k) [ sum_n U^2(k_n) r_a(k_n) ]
//                 / ( |d(k)|^2 [ sum_n U^2(k_n) ]^2 ),
//
//    where k_n = k + 2 pi N n are the alias images, r(k) = 4 pi k s2^2/k^2
//    is the reference force spectrum and d(k) the FD transfer function.
//    The S2 factor is shared by the three components of r, so it is
//    evaluated once per image.
//
// Symmetry.  Both kinds are even in each component of k and symmetric
// under permutations of the axes: one value serves the 48 signed axis
// permutations of a mode.  Every function below sorts (|kx|, |ky|, |kz|)
// descending before it evaluates, so the symmetry holds bit for bit.  The
// table builders evaluate each canonical triple n/2 >= a >= b >= c >= 0 the
// table needs exactly once (C(n/2+3, 3) for a whole mesh: 47,905 against
// 128^3 modes) and fill every entry by lookup, so each entry is
// bitwise equal to green_value at its own k.  The telemetry counter
// "pm/green_evals" counts those evaluations.

#include <cstddef>
#include <vector>

#include "pm/assign.hpp"

namespace greem::pm {

enum class GreenKind { kSimple, kOptimal };

struct GreenParams {
  std::size_t n_mesh = 0;
  double rcut = 0;
  Scheme scheme = Scheme::kTSC;
  int deconv_power = 2;  ///< kSimple only
  double G = 1.0;        ///< gravitational constant (unit box)
  GreenKind kind = GreenKind::kOptimal;
  int alias_range = 2;   ///< kOptimal: aliases summed over [-range, range]^3
};

/// Simple potential multiplier at integer wavenumber (kx, ky, kz),
/// each in (-n/2, n/2].
double green_potential(const GreenParams& p, long kx, long ky, long kz);

/// Optimal influence function at one wavenumber (125 alias images at the
/// default range; use the table).  Exactly 0 at modes whose every
/// component is 0 or n/2, where the finite difference vanishes.
double green_optimal(const GreenParams& p, long kx, long ky, long kz);

/// Value of the configured kind at one wavenumber.
double green_value(const GreenParams& p, long kx, long ky, long kz);

/// Precomputed multiplier table for the z-plane range [z_begin, z_end) of
/// an n^3 mesh in slab layout (z-major, ((z - z_begin)*n + y)*n + x).
/// Pass z_begin = 0, z_end = n for the full mesh.
std::vector<double> build_green_table(const GreenParams& p, std::size_t z_begin,
                                      std::size_t z_end);

/// As above but in the half-spectrum (r2c) layout of fft::Fft3dR2C:
/// (z*n + y)*(n/2+1) + x with x = 0..n/2 (the multiplier is real and even
/// in k, so the half spectrum suffices).
std::vector<double> build_green_table_r2c(const GreenParams& p);

}  // namespace greem::pm
