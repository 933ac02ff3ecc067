#include "pm/parallel_pm.hpp"

#include "fft/fft3d.hpp"
#include "pm/gradient.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel_for.hpp"

namespace greem::pm {

ParallelPm::ParallelPm(parx::Comm& world, ParallelPmParams params) : params_(params) {
  params_.conversion.n_mesh = params_.n_mesh;
  converter_ = std::make_unique<MeshConverter>(world, params_.conversion);
  if (converter_->is_fft_rank()) {
    slab_fft_.emplace(converter_->fft_comm(), params_.n_mesh);
    const fft::Range zr = converter_->my_slab();
    green_slab_ = build_green_table(params_.green_params(), zr.begin, zr.end());
  }
}

void ParallelPm::update_domain(const Box& domain) {
  // TSC touches the nearest cell +/- 1; with arbitrary (non-cell-aligned)
  // domain boundaries a 2-cell pad is always sufficient.  The 4-point
  // finite difference needs the potential 2 cells beyond the force region.
  density_region_ = region_for_domain(domain, params_.n_mesh, 2);
  force_region_ = density_region_;
  potential_region_ = expand(force_region_, 2);
  converter_->set_regions(density_region_, potential_region_);
}

ParallelPm::Cycle ParallelPm::start_cycle(std::span<const Vec3> pos,
                                          std::span<const double> mass, TimingBreakdown* t) {
  const std::size_t n = params_.n_mesh;
  Stopwatch sw;

  // (1) density assignment onto the local mesh
  LocalMesh rho(density_region_);
  {
    telemetry::Span span("pm/density_assignment");
    assign_density(rho, n, params_.scheme, pos, mass);
  }
  if (t) t->add("density assignment", sw.seconds());

  // (2a) post the forward conversion (relay mesh)
  Cycle c;
  c.active = true;
  c.gather = converter_->start_gather(rho, t);
  return c;
}

void ParallelPm::advance_fft(Cycle& c, TimingBreakdown* t) {
  // (2b) drain the forward conversion into density slabs
  c.slab = converter_->finish_gather(c.gather, t);

  // (3) slab FFT, Green's function convolution, inverse FFT
  Stopwatch sw;
  if (converter_->is_fft_rank()) {
    telemetry::Span span("pm/fft");
    std::vector<fft::Complex> cslab(c.slab.size());
    for (std::size_t i = 0; i < c.slab.size(); ++i) cslab[i] = {c.slab[i], 0.0};
    slab_fft_->forward(cslab);
    for (std::size_t i = 0; i < cslab.size(); ++i) cslab[i] *= green_slab_[i];
    slab_fft_->inverse(cslab);
    for (std::size_t i = 0; i < c.slab.size(); ++i) c.slab[i] = cslab[i].real();
  }
  if (t) t->add("FFT", sw.seconds());

  // (4a) post the backward conversion
  c.scatter = converter_->start_scatter(c.slab, t);
}

void ParallelPm::finish_cycle(Cycle& c, std::span<const Vec3> pos, std::span<Vec3> acc,
                              TimingBreakdown* t) {
  const std::size_t n = params_.n_mesh;

  // (4b) drain the backward conversion into the local potential mesh
  LocalMesh phi = converter_->finish_scatter(c.scatter, t);

  // (5a) acceleration on the mesh (4-point finite difference)
  Stopwatch sw;
  LocalMesh fx, fy, fz;
  {
    telemetry::Span span("pm/gradient");
    fd_gradient(phi, force_region_, n, fx, fy, fz);
  }
  if (t) t->add("acceleration on mesh", sw.seconds());

  // (5b) force interpolation to the particle positions (per-particle
  // independent reads; disjoint writes, so chunking cannot change results)
  sw.restart();
  {
    telemetry::Span span("pm/interpolate");
    parallel_for_chunks(0, pos.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        acc[i] += interpolate(fx, fy, fz, n, params_.scheme, pos[i]);
    });
  }
  if (t) t->add("force interpolation", sw.seconds());
  c.active = false;
}

void ParallelPm::accelerations(std::span<const Vec3> pos, std::span<const double> mass,
                               std::span<Vec3> acc, TimingBreakdown* t) {
  Cycle c = start_cycle(pos, mass, t);
  advance_fft(c, t);
  finish_cycle(c, pos, acc, t);
}

}  // namespace greem::pm
