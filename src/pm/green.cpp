#include "pm/green.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numbers>
#include <utility>

#include "fft/fft3d.hpp"
#include "pp/cutoff.hpp"
#include "telemetry/telemetry.hpp"

namespace greem::pm {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Per-axis transfer function of the 4-point finite difference,
/// F[D](k) = i d(k):  d(k) = (8 sin(k h) - sin(2 k h)) / (6 h).
double fd_transfer(double k, double h) {
  return (8.0 * std::sin(k * h) - std::sin(2.0 * k * h)) / (6.0 * h);
}

/// Assignment window at continuous wavenumber k (one axis):
/// U(k) = sinc(k h / 2)^support.
double axis_window(double k, double h, int power) {
  const double x = 0.5 * k * h;
  const double sinc = std::abs(x) < 1e-12 ? 1.0 : std::sin(x) / x;
  double w = sinc;
  for (int i = 1; i < power; ++i) w *= sinc;
  return w;
}

/// |k| per axis sorted descending: the canonical representative of the
/// 48 signed axis permutations of (kx, ky, kz), under which G is invariant.
struct Sorted {
  long a, b, c;
};

Sorted canonical(long kx, long ky, long kz) {
  long a = std::abs(kx), b = std::abs(ky), c = std::abs(kz);
  if (a < b) std::swap(a, b);
  if (b < c) std::swap(b, c);
  if (a < b) std::swap(a, b);
  return {a, b, c};
}

double potential_sorted(const GreenParams& p, const Sorted& s) {
  if (s.a == 0) return 0.0;
  const double k2 = kTwoPi * kTwoPi * static_cast<double>(s.a * s.a + s.b * s.b + s.c * s.c);
  const double k = std::sqrt(k2);
  // The S2 shape factor enters squared: the sources are S2-smeared and the
  // force on each particle is averaged over its own S2 cloud, so the pair
  // force reproduced by the mesh is the cloud-cloud force whose complement
  // is exactly gP3M (eq. 3), vanishing at r = rcut = 2a.
  const double s2 = pp::s2_fourier(k * p.rcut / 2.0);
  double g = -4.0 * std::numbers::pi * p.G / k2 * s2 * s2;
  if (p.deconv_power > 0) {
    double w = window(p.scheme, s.a, p.n_mesh) * window(p.scheme, s.b, p.n_mesh) *
               window(p.scheme, s.c, p.n_mesh);
    for (int i = 0; i < p.deconv_power; ++i) g /= w;
  }
  return g;
}

double optimal_sorted(const GreenParams& p, const Sorted& s) {
  // Modes whose every component is 0 or n/2 (the DC mode included): the
  // finite difference vanishes on each axis, so no force can act on them.
  // Decided on the integers -- fd_transfer returns rounding noise at
  // k h = pi, not zero, and the quotient below would amplify it.
  const auto dead = [&](long k) { return k == 0 || 2 * static_cast<std::size_t>(k) == p.n_mesh; };
  if (dead(s.a) && dead(s.b) && dead(s.c)) return 0.0;
  const auto n = static_cast<double>(p.n_mesh);
  const double h = 1.0 / n;
  const int wp = support(p.scheme);
  const double k[3] = {kTwoPi * static_cast<double>(s.a), kTwoPi * static_cast<double>(s.b),
                       kTwoPi * static_cast<double>(s.c)};

  const double d[3] = {fd_transfer(k[0], h), fd_transfer(k[1], h), fd_transfer(k[2], h)};
  const double d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];

  // Alias images k_n = k + 2 pi N m, m in [-range, range]^3, built from
  // per-axis wavenumbers and windows.  The reference force spectrum
  // r_a(k_n) = 4 pi G k_a s2(|k_n| rcut/2)^2 / |k_n|^2 shares its S2 factor
  // across the three components, so it is evaluated once per image.
  const int na = 2 * p.alias_range + 1;
  const double ks = kTwoPi * n;
  std::vector<double> ak(3 * static_cast<std::size_t>(na)), uk(ak.size());
  for (int axis = 0; axis < 3; ++axis)
    for (int m = 0; m < na; ++m) {
      const std::size_t i = static_cast<std::size_t>(axis * na + m);
      ak[i] = k[axis] + ks * (m - p.alias_range);
      uk[i] = axis_window(ak[i], h, wp);
    }
  const double* ax = ak.data();
  const double* ay = ax + na;
  const double* az = ay + na;
  const double* ux = uk.data();
  const double* uy = ux + na;
  const double* uz = uy + na;
  const double four_pi_g = 4.0 * std::numbers::pi * p.G;

  double usum = 0;           // sum U^2
  double dr[3] = {0, 0, 0};  // sum U^2 r_a
  for (int i = 0; i < na; ++i)
    for (int j = 0; j < na; ++j) {
      const double uxy = ux[i] * uy[j];
      for (int l = 0; l < na; ++l) {
        const double u = uxy * uz[l];
        const double u2 = u * u;
        usum += u2;
        const double k2n = ax[i] * ax[i] + ay[j] * ay[j] + az[l] * az[l];
        if (k2n <= 0) continue;
        const double s2 = pp::s2_fourier(std::sqrt(k2n) * p.rcut / 2.0);
        const double f = u2 * four_pi_g * s2 * s2 / k2n;
        dr[0] += f * ax[i];
        dr[1] += f * ay[j];
        dr[2] += f * az[l];
      }
    }
  const double num = d[0] * dr[0] + d[1] * dr[1] + d[2] * dr[2];
  return -num / (d2 * usum * usum);
}

double value_sorted(const GreenParams& p, const Sorted& s) {
  return p.kind == GreenKind::kOptimal ? optimal_sorted(p, s) : potential_sorted(p, s);
}

/// Table of the configured kind over the z planes [z_begin, z_end), every
/// row y and the first nx columns x of the n^3 mesh, laid out
/// ((z - z_begin)*n + y)*nx + x with kx = wavenumber(x, n).  Both callers
/// (nx = n and nx = n/2 + 1) cover every |kx| and |ky| in [0, n/2].
///
/// Each mode class (one canonical triple) is evaluated once.  A needed
/// triple contains at least one |kz| of the range; its owner is the
/// largest such component, and it is stored under the owner's row at the
/// packed index of the two remaining components u >= v, u(u+1)/2 + v.
/// The index holds (distinct |kz|) x (n/2+1)(n/2+2)/2 entries, so its size
/// follows the slab, not the whole mesh.
std::vector<double> build_table(const GreenParams& p, std::size_t z_begin, std::size_t z_end,
                                std::size_t nx) {
  const std::size_t n = p.n_mesh;
  const std::size_t m = n / 2;  // largest |k| per axis
  std::vector<std::size_t> absk(n);
  for (std::size_t i = 0; i < n; ++i)
    absk[i] = static_cast<std::size_t>(std::abs(fft::wavenumber(i, n)));

  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> row(m + 1, kNone);  // |kz| -> owner row
  std::size_t rows = 0;
  for (std::size_t z = z_begin; z < z_end; ++z)
    if (row[absk[z]] == kNone) row[absk[z]] = rows++;
  const std::size_t pairs = (m + 1) * (m + 2) / 2;
  const auto outranks = [&](std::size_t k, std::size_t owner) {
    return row[k] != kNone && k > owner;
  };
  const auto slot = [&](std::size_t owner, std::size_t u, std::size_t v) {
    if (outranks(u, owner)) std::swap(owner, u);
    if (outranks(v, owner)) std::swap(owner, v);
    if (u < v) std::swap(u, v);
    return row[owner] * pairs + u * (u + 1) / 2 + v;
  };

  std::vector<double> values(rows * pairs);
  std::uint64_t evals = 0;
  for (std::size_t owner = 0; owner <= m; ++owner) {
    if (row[owner] == kNone) continue;
    for (std::size_t u = 0; u <= m; ++u) {
      if (outranks(u, owner)) continue;
      for (std::size_t v = 0; v <= u; ++v) {
        if (outranks(v, owner)) continue;
        values[slot(owner, u, v)] = value_sorted(
            p, canonical(static_cast<long>(owner), static_cast<long>(u), static_cast<long>(v)));
        ++evals;
      }
    }
  }
  if constexpr (telemetry::enabled())
    telemetry::Registry::global().counter("pm/green_evals").add(evals);

  std::vector<double> table((z_end - z_begin) * n * nx);
  for (std::size_t z = z_begin; z < z_end; ++z)
    for (std::size_t y = 0; y < n; ++y) {
      double* out = table.data() + ((z - z_begin) * n + y) * nx;
      for (std::size_t x = 0; x < nx; ++x) out[x] = values[slot(absk[z], absk[y], absk[x])];
    }
  return table;
}

}  // namespace

double green_potential(const GreenParams& p, long kx, long ky, long kz) {
  return potential_sorted(p, canonical(kx, ky, kz));
}

double green_optimal(const GreenParams& p, long kx, long ky, long kz) {
  return optimal_sorted(p, canonical(kx, ky, kz));
}

double green_value(const GreenParams& p, long kx, long ky, long kz) {
  return value_sorted(p, canonical(kx, ky, kz));
}

std::vector<double> build_green_table_r2c(const GreenParams& p) {
  return build_table(p, 0, p.n_mesh, p.n_mesh / 2 + 1);
}

std::vector<double> build_green_table(const GreenParams& p, std::size_t z_begin,
                                      std::size_t z_end) {
  return build_table(p, z_begin, z_end, p.n_mesh);
}

}  // namespace greem::pm
