#include "core/particle.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace greem::core {

std::vector<Vec3> positions_of(std::span<const Particle> ps) {
  std::vector<Vec3> out(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) out[i] = ps[i].pos;
  return out;
}

std::vector<double> masses_of(std::span<const Particle> ps) {
  std::vector<double> out(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) out[i] = ps[i].mass;
  return out;
}

std::vector<Particle> sorted_by_id(std::span<const Particle> ps) {
  std::vector<Particle> out(ps.begin(), ps.end());
  std::sort(out.begin(), out.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return out;
}

std::vector<Particle> random_uniform_particles(std::size_t n, double total_mass,
                                               std::uint64_t seed) {
  Rng rng(seed, 1);
  std::vector<Particle> out(n);
  const double m = total_mass / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].pos = {rng.uniform(), rng.uniform(), rng.uniform()};
    out[i].mass = m;
    out[i].id = i;
  }
  return out;
}

namespace {

Vec3 plummer_point(Rng& rng, const Vec3& center, double scale) {
  // Radius from the Plummer cumulative mass profile, isotropic direction.
  const double u = std::max(rng.uniform(), 1e-12);
  const double r = scale / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
  const double ct = rng.uniform(-1.0, 1.0);
  const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
  const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return wrap01(center + Vec3{r * st * std::cos(phi), r * st * std::sin(phi), r * ct});
}

}  // namespace

std::vector<Particle> plummer_particles(std::size_t n, double total_mass, const Vec3& center,
                                        double scale, std::uint64_t seed) {
  Rng rng(seed, 2);
  std::vector<Particle> out(n);
  const double m = total_mass / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].pos = plummer_point(rng, center, scale);
    out[i].mass = m;
    out[i].id = i;
  }
  return out;
}

std::vector<Particle> clustered_particles(std::size_t n, double total_mass, int nclusters,
                                          double cluster_fraction, double scale,
                                          std::uint64_t seed) {
  Rng rng(seed, 3);
  std::vector<Vec3> centers(static_cast<std::size_t>(nclusters));
  for (auto& c : centers) c = {rng.uniform(), rng.uniform(), rng.uniform()};

  std::vector<Particle> out(n);
  const double m = total_mass / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < cluster_fraction) {
      const auto& c = centers[rng.uniform_index(centers.size())];
      out[i].pos = plummer_point(rng, c, scale);
    } else {
      out[i].pos = {rng.uniform(), rng.uniform(), rng.uniform()};
    }
    out[i].mass = m;
    out[i].id = i;
  }
  return out;
}

}  // namespace greem::core
