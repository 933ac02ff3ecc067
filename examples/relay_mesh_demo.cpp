// Walkthrough of the paper's Figure 5: 6x6 = 36 processes, an 8^3 PM mesh
// (8 FFT processes), and the relay mesh method with 4 groups of 9.  Runs
// one PM cycle with one group (the straightforward global alltoallv) and
// one with 4 groups, and prints the communication structure each produces:
// message counts at the busiest endpoint, total traffic, and the modeled
// congestion time -- the quantity the relay method improves by >4x on the
// full K computer.

#include <cstdio>
#include <iostream>

#include "core/particle.hpp"
#include "domain/multisection.hpp"
#include "parx/runtime.hpp"
#include "pm/parallel_pm.hpp"
#include "util/table.hpp"

using namespace greem;

namespace {

struct Result {
  parx::TrafficTotals totals;
  double model_s = 0;
  double wall_s = 0;
};

Result run_conversion(int n_groups) {
  const std::array<int, 3> dims{6, 6, 1};
  const auto decomp = domain::Decomposition::uniform(dims);
  const auto particles = core::clustered_particles(7200, 1.0, 4, 0.6, 0.04, 11);

  parx::Runtime rt(36);
  Result out;
  rt.run([&](parx::Comm& world) {
    pm::ParallelPmParams params;
    params.n_mesh = 8;  // N_PM = 8^3, so 8 FFT processes (fig. 5)
    params.conversion.n_groups = n_groups;
    pm::ParallelPm solver(world, params);
    solver.update_domain(decomp.box_of(world.rank()));

    std::vector<Vec3> pos;
    std::vector<double> mass;
    for (const auto& p : particles) {
      if (decomp.find_domain(p.pos) == world.rank()) {
        pos.push_back(p.pos);
        mass.push_back(p.mass);
      }
    }

    world.barrier();
    if (world.rank() == 0) world.ledger().reset();
    world.barrier();

    TimingBreakdown t;
    std::vector<Vec3> acc(pos.size());
    solver.accelerations(pos, mass, acc, &t);

    world.barrier();
    if (world.rank() == 0) {
      out.totals = world.ledger().totals();
      out.model_s = world.ledger().model_time();
    }
    const double comm = t.get("communication");
    const double worst = world.allreduce_max(comm);
    if (world.rank() == 0) out.wall_s = worst;
  });
  return out;
}

}  // namespace

int main() {
  std::printf("Figure 5 configuration: 36 processes (6x6), N_PM = 8^3,\n");
  std::printf("8 FFT processes, relay mesh with 4 groups of 9.\n\n");

  const Result direct = run_conversion(1);
  const Result relay = run_conversion(4);

  TextTable table;
  table.header({"conversion", "messages", "bytes", "max in-msgs/rank", "modeled comm (us)",
                "measured comm (ms)"});
  auto row = [&](const char* name, const Result& r) {
    table.row({name, TextTable::num(static_cast<long long>(r.totals.messages)),
               TextTable::num(static_cast<long long>(r.totals.bytes)),
               TextTable::num(static_cast<long long>(r.totals.max_in_messages)),
               TextTable::num(r.model_s * 1e6, 4), TextTable::num(r.wall_s * 1e3, 4)});
  };
  row("1 group (direct alltoallv)", direct);
  row("relay mesh (4 groups)", relay);
  table.print(std::cout);
  return 0;
}
