// Reproduction of the §II-B relay mesh experiment.  The paper measured,
// for a 4096^3 FFT on 12288 nodes, the conversion of the 3-D local density
// mesh to 1-D slabs at ~10 s and the backward potential conversion at
// ~3 s; the relay mesh method with three groups reduced them to ~3 s and
// ~0.3 s -- more than 4x overall, because each FFT process stops being an
// endpoint for ~p^(2/3) senders.
//
// Here we sweep the rank count and the number of relay groups and report,
// for the forward and backward conversions separately: the busiest
// endpoint's message count, and the modeled congestion time (endpoint
// serialization: latency + bytes/bandwidth).  One group is the direct
// conversion (a single world-wide alltoallv).  The shape to compare: the
// one-group busiest endpoint grows ~ p^(2/3) while with k groups it stays
// near the group size, with a multi-x modeled speedup at the largest p.

#include <cstdio>
#include <iostream>
#include <optional>

#include "core/particle.hpp"
#include "domain/multisection.hpp"
#include "parx/runtime.hpp"
#include "pm/parallel_pm.hpp"
#include "util/table.hpp"

using namespace greem;

namespace {

struct PhaseTraffic {
  std::uint64_t fwd_max_in = 0, bwd_max_in = 0;
  double fwd_model_s = 0, bwd_model_s = 0;
};

PhaseTraffic run(std::array<int, 3> dims, std::size_t n_mesh, int n_groups) {
  const int p = dims[0] * dims[1] * dims[2];
  const auto decomp = domain::Decomposition::uniform(dims);
  const auto particles =
      core::random_uniform_particles(static_cast<std::size_t>(p) * 64, 1.0, 5);

  parx::Runtime rt(p);
  PhaseTraffic out;
  rt.run([&](parx::Comm& world) {
    pm::ParallelPmParams params;
    params.n_mesh = n_mesh;
    params.conversion.n_groups = n_groups;
    pm::ParallelPm solver(world, params);
    solver.update_domain(decomp.box_of(world.rank()));

    std::vector<Vec3> pos;
    std::vector<double> mass;
    for (const auto& q : particles) {
      if (decomp.find_domain(q.pos) == world.rank()) {
        pos.push_back(q.pos);
        mass.push_back(q.mass);
      }
    }

    // Forward conversion traffic.  Rank 0 brackets each conversion with a
    // ledger epoch (snapshot-diff; no global reset, so nothing else racing
    // on the ledger is disturbed).  The barriers make the phase boundaries
    // globally quiescent, which keeps the per-phase attribution exact --
    // see the contract in parx/traffic.hpp.
    pm::LocalMesh rho(pm::region_for_domain(decomp.box_of(world.rank()), n_mesh, 2));
    pm::assign_density(rho, n_mesh, pm::Scheme::kTSC, pos, mass);
    world.barrier();
    std::optional<parx::TrafficLedger::Epoch> epoch;
    if (world.rank() == 0) epoch.emplace(world.ledger().begin_phase("forward"));
    auto slab = solver.converter().gather_density(rho, nullptr);
    world.barrier();
    if (world.rank() == 0) {
      const parx::TrafficCounts fwd = epoch->delta();
      out.fwd_max_in = fwd.totals().max_in_messages;
      out.fwd_model_s = fwd.model_time();
      epoch.emplace(world.ledger().begin_phase("backward"));
    }
    world.barrier();
    // Backward conversion traffic (scatter the density back as if it were
    // the potential; identical communication structure).
    solver.converter().scatter_potential(slab, nullptr);
    world.barrier();
    if (world.rank() == 0) {
      const parx::TrafficCounts bwd = epoch->delta();
      out.bwd_max_in = bwd.totals().max_in_messages;
      out.bwd_model_s = bwd.model_time();
    }
  });
  return out;
}

}  // namespace

int main() {
  std::printf("Relay mesh method: k groups vs 1 group (the direct alltoallv), paper §II-B.\n");
  std::printf("Modeled time: per-endpoint serialization, 5 us latency, 5 GB/s.\n\n");

  TextTable t;
  t.header({"p", "mesh", "groups", "fwd max-in", "fwd model (us)", "bwd max-in",
            "bwd model (us)", "speedup"});

  struct Case {
    std::array<int, 3> dims;
    std::size_t mesh;
    std::vector<int> groups;
  };
  const std::vector<Case> cases = {
      {{4, 4, 4}, 16, {2, 4}},
      {{6, 6, 2}, 8, {3, 9}},
      {{5, 5, 5}, 8, {5, 15}},
  };
  for (const auto& c : cases) {
    const int p = c.dims[0] * c.dims[1] * c.dims[2];
    const auto direct = run(c.dims, c.mesh, 1);
    const double direct_total = direct.fwd_model_s + direct.bwd_model_s;
    t.row({TextTable::num((long long)p), TextTable::num((long long)c.mesh), "1 (direct)",
           TextTable::num((long long)direct.fwd_max_in),
           TextTable::num(direct.fwd_model_s * 1e6, 4),
           TextTable::num((long long)direct.bwd_max_in),
           TextTable::num(direct.bwd_model_s * 1e6, 4), "1.0"});
    for (int g : c.groups) {
      const auto relay = run(c.dims, c.mesh, g);
      const double relay_total = relay.fwd_model_s + relay.bwd_model_s;
      t.row({TextTable::num((long long)p), TextTable::num((long long)c.mesh),
             TextTable::num((long long)g), TextTable::num((long long)relay.fwd_max_in),
             TextTable::num(relay.fwd_model_s * 1e6, 4),
             TextTable::num((long long)relay.bwd_max_in),
             TextTable::num(relay.bwd_model_s * 1e6, 4),
             TextTable::num(direct_total / relay_total, 3)});
    }
  }
  t.print(std::cout);
  std::printf("\nShape check vs the paper: with one group the busiest endpoint\n");
  std::printf("grows with p (toward ~p^(2/3) senders per FFT process at scale);\n");
  std::printf("k groups cap it near the group size and win by a growing\n");
  std::printf("factor, >4x on the full K computer.\n");
  return 0;
}
