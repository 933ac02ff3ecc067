// Full distributed TreePM run: the complete per-step pipeline of the paper
// (sampling-method domain decomposition -> particle exchange -> PM cycle
// with the relay mesh -> two PP cycles with ghost exchange and the phantom
// kernel), printing a per-step cost breakdown in the style of Table I.
//
// Usage: parallel_treepm [ranks_per_dim=2] [n_particles=4096] [nsteps=4]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/parallel_sim.hpp"
#include "parx/runtime.hpp"
#include "util/table.hpp"

using namespace greem;

int main(int argc, char** argv) {
  const int d = argc > 1 ? std::atoi(argv[1]) : 2;
  const std::size_t n = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4096;
  const int nsteps = argc > 3 ? std::atoi(argv[3]) : 4;
  const int nranks = d * d * d;

  // Clustered workload standing in for an evolved cosmological snapshot.
  auto particles = core::clustered_particles(n, 1.0, 4, 0.6, 0.03, 99);

  core::ParallelSimConfig cfg;
  cfg.dims = {d, d, d};
  cfg.pm.n_mesh = 32;
  cfg.pm.conversion.n_groups = 2;
  cfg.theta = 0.5;
  cfg.ncrit = 64;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 20000;

  std::printf("distributed TreePM: %d ranks (%dx%dx%d), %zu particles, relay mesh\n\n",
              nranks, d, d, d, n);

  parx::run_ranks(nranks, [&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);

    for (int s = 1; s <= nsteps; ++s) {
      sim.step(s * 0.002);
      const auto& rep = sim.last_step();
      const auto pm_t = core::allreduce_max(world, rep.pm);
      const auto pp_t = core::allreduce_max(world, rep.pp);
      const auto dd_t = core::allreduce_max(world, rep.dd);
      const auto stats = core::allreduce_sum(world, rep.pp_stats);
      if (world.rank() == 0) {
        std::printf("step %d (seconds, max over ranks):\n", s);
        TextTable t;
        t.header({"phase", "sec/step"});
        t.row({"PM", TextTable::num(pm_t.total(), 3)});
        for (const auto& [k, v] : pm_t.entries()) t.row({"  " + k, TextTable::num(v, 3)});
        t.row({"PP", TextTable::num(pp_t.total(), 3)});
        for (const auto& [k, v] : pp_t.entries()) t.row({"  " + k, TextTable::num(v, 3)});
        t.row({"Domain Decomposition", TextTable::num(dd_t.total(), 3)});
        for (const auto& [k, v] : dd_t.entries()) t.row({"  " + k, TextTable::num(v, 3)});
        t.print(std::cout);
        std::printf("<Ni>=%.0f <Nj>=%.0f interactions=%llu\n\n", stats.mean_ni(),
                    stats.mean_nj(), static_cast<unsigned long long>(stats.interactions));
      }
    }
    sim.synchronize();
  });
  return 0;
}
