// The production run driver: a complete cosmological TreePM simulation
// configured from a key = value file -- initial conditions (Zel'dovich or
// 2LPT), the multiple-stepsize integration in log(a), snapshot and image
// output, optional restart from a snapshot, and a FoF catalog at the end.
// Runs the distributed engine on one rank; GREEM_THREADS sizes its pool.
//
// Usage: greem_run <config-file>
//        greem_run --print-defaults
// See examples/configs/microhalo.cfg for an annotated configuration.

#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>

#include "analysis/fof.hpp"
#include "analysis/projection.hpp"
#include "core/parallel_sim.hpp"
#include "fft/fft1d.hpp"
#include "ic/zeldovich.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/snapshot.hpp"
#include "parx/runtime.hpp"

using namespace greem;

namespace {

const char* kDefaults = R"(# greem_run configuration (defaults shown)
n_per_dim      = 16        # particles per dimension (power of two)
seed           = 42
ic             = 2lpt      # zeldovich | 2lpt
amplitude      = 2e-5      # P(k) amplitude at a_start
index          = 0.0       # spectral index
kcut_modes     = 4         # free-streaming cutoff, in units of n_per_dim/kcut_div
cosmology      = concordance   # concordance | eds
a_start        = 0.0025    # z = 399
a_end          = 0.03125   # z = 31
nsteps         = 16        # log-spaced steps
n_mesh         = 0         # PM mesh per dim (0: 2*n_per_dim)
theta          = 0.5
ncrit          = 64
eps_spacings   = 0.03      # softening in mean interparticle spacings
output_prefix  = greem
snapshots      = 2         # snapshot/image dumps, log-spaced over the run
restart        =           # snapshot file to resume from (overrides ICs)
fof            = true      # FoF catalog at the end
)";

struct KnownKeys {
  std::vector<std::string> list{"n_per_dim", "seed",       "ic",         "amplitude",
                                "index",     "kcut_modes", "cosmology",  "a_start",
                                "a_end",     "nsteps",     "n_mesh",     "theta",
                                "ncrit",     "eps_spacings", "output_prefix",
                                "snapshots", "restart",    "fof"};
};

void dump(const std::string& prefix, int index, const core::ParallelSimulation& sim) {
  char tag[64];
  std::snprintf(tag, sizeof tag, "%s_%03d", prefix.c_str(), index);
  const auto particles = core::sorted_by_id(sim.local());
  io::SnapshotHeader h;
  h.clock = sim.clock();
  h.comoving = 1;
  h.particle_mass = particles.empty() ? 0 : particles[0].mass;
  io::write_snapshot(std::string(tag) + ".bin", h, particles);
  analysis::ProjectionParams pp;
  pp.pixels = 256;
  analysis::write_projection(core::positions_of(particles), pp, std::string(tag) + ".pgm");
  std::printf("  dumped %s.{bin,pgm} at a = %.5f (z = %.1f)\n", tag, sim.clock(),
              cosmo::Cosmology::z_of_a(sim.clock()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--print-defaults") == 0) {
    std::fputs(kDefaults, stdout);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file> | --print-defaults\n", argv[0]);
    return 2;
  }
  std::string error;
  const auto cfg_opt = io::Config::parse_file(argv[1], &error);
  if (!cfg_opt) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const io::Config& cfg = *cfg_opt;
  for (const auto& key : cfg.unknown_keys(KnownKeys{}.list))
    std::fprintf(stderr, "warning: unknown config key '%s'\n", key.c_str());

  const auto n_per_dim =
      fft::next_pow2(static_cast<std::size_t>(cfg.get_int("n_per_dim", 16)));
  const double a_start = cfg.get_double("a_start", 0.0025);
  const double a_end = cfg.get_double("a_end", 0.03125);
  const int nsteps = static_cast<int>(cfg.get_int("nsteps", 16));
  const std::string prefix = cfg.get_string("output_prefix", "greem");

  const auto cosmos = cfg.get_string("cosmology", "concordance") == "eds"
                          ? cosmo::Cosmology::eds_unit_mass()
                          : cosmo::Cosmology::concordance_unit_mass();

  // Initial conditions (or restart).
  std::vector<core::Particle> particles;
  double clock = a_start;
  const std::string restart = cfg.get_string("restart", "");
  if (!restart.empty()) {
    const auto snap = io::read_snapshot(restart);
    if (!snap) {
      std::fprintf(stderr, "error: cannot read restart snapshot %s\n", restart.c_str());
      return 2;
    }
    particles = snap->particles;
    clock = snap->header.clock;
    std::printf("restarting from %s at a = %.5f (%zu particles)\n", restart.c_str(), clock,
                particles.size());
  } else {
    ic::ZeldovichParams zp;
    zp.n_per_dim = n_per_dim;
    zp.a_start = a_start;
    zp.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    const double kcut = 2.0 * std::numbers::pi * static_cast<double>(n_per_dim) /
                        std::max(cfg.get_double("kcut_modes", 4.0), 1e-9);
    const ic::CutoffPowerLaw spectrum(cfg.get_double("amplitude", 2e-5),
                                      cfg.get_double("index", 0.0), kcut);
    const auto ics = cfg.get_string("ic", "2lpt") == "zeldovich"
                         ? ic::zeldovich_ics(zp, spectrum, cosmos)
                         : ic::lpt2_ics(zp, spectrum, cosmos);
    std::printf("%s ICs: %zu particles at z = %.1f, rms displacement %.3f spacings\n",
                cfg.get_string("ic", "2lpt").c_str(), ics.pos.size(),
                cosmo::Cosmology::z_of_a(a_start), ics.rms_displacement_spacings);
    particles.resize(ics.pos.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      particles[i].pos = ics.pos[i];
      particles[i].mom = ics.mom[i];
      particles[i].mass = ics.particle_mass;
      particles[i].id = i;
    }
  }

  core::ParallelSimConfig sim_cfg;
  const auto n_mesh = static_cast<std::size_t>(cfg.get_int("n_mesh", 0));
  sim_cfg.pm.n_mesh = n_mesh > 0 ? fft::next_pow2(n_mesh) : fft::next_pow2(2 * n_per_dim);
  sim_cfg.theta = cfg.get_double("theta", 0.5);
  sim_cfg.ncrit = static_cast<std::uint32_t>(cfg.get_int("ncrit", 64));
  sim_cfg.eps = cfg.get_double("eps_spacings", 0.03) / static_cast<double>(n_per_dim);
  sim_cfg.metric.comoving = true;
  sim_cfg.metric.cosmology = cosmos;

  std::vector<core::Particle> final_state;
  parx::run_ranks(1, [&](parx::Comm& world) {
    core::ParallelSimulation sim(world, sim_cfg, std::move(particles), clock);
    const auto schedule = core::log_schedule(clock, a_end, nsteps);
    const int nsnap = std::max(1, static_cast<int>(cfg.get_int("snapshots", 2)));
    int next_dump = 1;
    dump(prefix, 0, sim);
    for (int s = 1; s <= nsteps; ++s) {
      sim.step(schedule[static_cast<std::size_t>(s)]);
      std::printf("step %3d/%d  a = %.5f  z = %6.1f  interactions = %llu\n", s, nsteps,
                  sim.clock(), cosmo::Cosmology::z_of_a(sim.clock()),
                  static_cast<unsigned long long>(sim.last_step().pp_stats.interactions));
      if (s * nsnap >= next_dump * nsteps) {
        sim.synchronize();
        dump(prefix, next_dump, sim);
        ++next_dump;
      }
    }
    sim.synchronize();
    final_state = core::sorted_by_id(sim.local());
  });

  if (cfg.get_bool("fof", true)) {
    const auto pos = core::positions_of(final_state);
    const auto groups =
        analysis::fof_groups(pos, analysis::fof_linking_length(pos.size()), 32);
    const std::string catalog = prefix + "_halos.csv";
    io::write_halo_catalog(catalog, groups, pos, 1.0 / static_cast<double>(pos.size()));
    std::printf("FoF: %zu halos >= 32 particles -> %s\n", groups.ngroups(), catalog.c_str());
  }
  return 0;
}
