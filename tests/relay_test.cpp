// Parallel PM and relay mesh method tests: the distributed solver must
// reproduce the serial PM exactly (up to summation order) with one relay
// group (the direct conversion) and with several, and the traffic ledger
// must show the paper's congestion-relief effect.  Includes the exact
// configuration of the paper's Fig. 5 (6x6 processes, 8^3 mesh, 4 groups).

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "domain/multisection.hpp"
#include "parx/runtime.hpp"
#include "pm/parallel_pm.hpp"
#include "pm/pm_solver.hpp"
#include "pm/relay_mesh.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace greem::pm {
namespace {

struct TestParticles {
  std::vector<Vec3> pos;
  std::vector<double> mass;
};

TestParticles make_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TestParticles tp;
  tp.pos.resize(n);
  tp.mass.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tp.pos[i] = {rng.uniform(), rng.uniform(), rng.uniform()};
    tp.mass[i] = rng.uniform(0.5, 1.5) / static_cast<double>(n);
  }
  return tp;
}

/// Rank-level calls of the relay mesh's cross-group reduce so far (a
/// telemetry counter; it stays 0 when the telemetry layer is compiled out).
std::uint64_t cross_group_reduces() {
  return telemetry::Registry::global().counter("pm/relay/cross_group_reduces").value();
}

/// Run the parallel PM over `dims` ranks and compare per-particle
/// accelerations with the serial solver.  With n_groups > 1, each of the
/// n_fft slab positions of every group must have joined the cross-group
/// reduce: the converter caps the groups at p / n_fft, so `n_fft` must
/// leave room for them.
void expect_matches_serial(std::array<int, 3> dims, int n_groups, std::size_t n_mesh,
                           int n_fft = 0) {
  const auto tp = make_particles(300, 42);

  // Serial reference.
  PmSolver serial({n_mesh, 0, Scheme::kTSC, 2, 1.0});
  std::vector<Vec3> ref(tp.pos.size());
  serial.accelerations(tp.pos, tp.mass, ref);

  const int p = dims[0] * dims[1] * dims[2];
  const auto decomp = domain::Decomposition::uniform(dims);

  std::mutex mu;
  std::vector<Vec3> got(tp.pos.size());
  const std::uint64_t reduce_before = cross_group_reduces();
  parx::run_ranks(p, [&](parx::Comm& world) {
    ParallelPmParams params;
    params.n_mesh = n_mesh;
    params.conversion.n_fft = n_fft;
    params.conversion.n_groups = n_groups;
    ParallelPm pm(world, params);
    pm.update_domain(decomp.box_of(world.rank()));

    std::vector<Vec3> lpos;
    std::vector<double> lmass;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < tp.pos.size(); ++i) {
      if (decomp.find_domain(tp.pos[i]) == world.rank()) {
        lpos.push_back(tp.pos[i]);
        lmass.push_back(tp.mass[i]);
        idx.push_back(i);
      }
    }
    std::vector<Vec3> lacc(lpos.size());
    pm.accelerations(lpos, lmass, lacc);
    std::lock_guard lock(mu);
    for (std::size_t k = 0; k < idx.size(); ++k) got[idx[k]] = lacc[k];
  });

  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max(ref[i].norm(), 1.0);
    EXPECT_NEAR(got[i].x, ref[i].x, 1e-9 * scale);
    EXPECT_NEAR(got[i].y, ref[i].y, 1e-9 * scale);
    EXPECT_NEAR(got[i].z, ref[i].z, 1e-9 * scale);
  }
  if (telemetry::enabled()) {
    const int fft = n_fft > 0 ? n_fft : std::min(p, static_cast<int>(n_mesh));
    EXPECT_EQ(cross_group_reduces() - reduce_before,
              n_groups > 1 ? static_cast<std::uint64_t>(fft * n_groups) : 0u);
  }
}

TEST(ParallelPm, OneGroupMatchesSerialSingleRank) { expect_matches_serial({1, 1, 1}, 1, 16); }

TEST(ParallelPm, OneGroupMatchesSerialEightRanks) { expect_matches_serial({2, 2, 2}, 1, 16); }

TEST(ParallelPm, OneGroupMatchesSerialAnisotropicGrid) {
  expect_matches_serial({4, 2, 1}, 1, 16);
}

TEST(ParallelPm, RelayMatchesSerialTwoGroups) {
  // 8 ranks, 4 FFT ranks -> two groups of 4.
  expect_matches_serial({2, 2, 2}, 2, 16, 4);
}

TEST(ParallelPm, RelayMatchesSerialFourGroups) {
  // 16 ranks, 4 FFT ranks -> four groups of 4.
  expect_matches_serial({4, 2, 2}, 4, 16, 4);
}

TEST(ParallelPm, RelayWithMoreRanksThanMeshPlanes) {
  // 27 ranks, 8 planes -> n_fft = 8 < p, the regime the relay method
  // targets: three groups of 9.
  expect_matches_serial({3, 3, 3}, 3, 8);
}

TEST(ParallelPm, Figure5Configuration) {
  // The paper's illustration: 6x6 = 36 processes, N_PM = 8^3, 8 FFT
  // processes, 4 groups of 9.
  expect_matches_serial({6, 6, 1}, 4, 8);
}

TEST(MeshConverter, PlaneOwnerInvertsSplitRange) {
  parx::run_ranks(5, [](parx::Comm& world) {
    ConverterParams params;
    params.n_mesh = 16;
    params.n_fft = 5;
    MeshConverter conv(world, params);
    for (std::size_t z = 0; z < 16; ++z) {
      const int f = conv.plane_owner(z);
      const auto r = fft::split_range(16, 5, f);
      EXPECT_GE(z, r.begin);
      EXPECT_LT(z, r.end());
    }
  });
}

TEST(MeshConverter, ForwardBackwardRoundtrip) {
  // Scatter a known slab field back to local meshes: every rank must see
  // exactly the global field over its region.
  const std::size_t n = 8;
  const auto dims = std::array<int, 3>{2, 2, 1};
  const auto decomp = domain::Decomposition::uniform(dims);
  parx::run_ranks(4, [&](parx::Comm& world) {
    ConverterParams params;
    params.n_mesh = n;
    MeshConverter conv(world, params);

    const CellRegion region = region_for_domain(decomp.box_of(world.rank()), n, 2);
    conv.set_regions(region, region);

    // Global analytic field f(x,y,z) = x + 10 y + 100 z.
    std::vector<double> slab;
    if (conv.is_fft_rank()) {
      const auto zr = conv.my_slab();
      slab.resize(zr.count * n * n);
      for (std::size_t z = zr.begin; z < zr.end(); ++z)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t x = 0; x < n; ++x)
            slab[((z - zr.begin) * n + y) * n + x] =
                static_cast<double>(x) + 10.0 * static_cast<double>(y) +
                100.0 * static_cast<double>(z);
    }
    LocalMesh local = conv.scatter_potential(slab, nullptr);
    for (long z = region.lo[2]; z < region.hi(2); ++z)
      for (long y = region.lo[1]; y < region.hi(1); ++y)
        for (long x = region.lo[0]; x < region.hi(0); ++x) {
          const double expected = static_cast<double>(wrap_cell(x, n)) +
                                  10.0 * static_cast<double>(wrap_cell(y, n)) +
                                  100.0 * static_cast<double>(wrap_cell(z, n));
          EXPECT_DOUBLE_EQ(local.at(x, y, z), expected);
        }
  });
}

TEST(MeshConverter, GatherSumsOverlappingContributions) {
  // Two ranks with overlapping regions each deposit 1 in every cell of
  // their region; the slab must hold the number of covering regions.
  const std::size_t n = 8;
  parx::run_ranks(2, [&](parx::Comm& world) {
    ConverterParams params;
    params.n_mesh = n;
    MeshConverter conv(world, params);

    const CellRegion region{{0, 0, 0}, {n, n, n}};  // both cover everything
    conv.set_regions(region, region);
    LocalMesh mine(region);
    mine.fill(1.0);
    auto slab = conv.gather_density(mine, nullptr);
    if (conv.is_fft_rank()) {
      for (double v : slab) EXPECT_DOUBLE_EQ(v, 2.0);
    }
  });
}

TEST(RelayMesh, ReducesCongestionAtFftRanks) {
  // Measure the busiest receiver during the forward conversion: four relay
  // groups must cut it well below one group's, the direct conversion (the
  // paper's factor >3 at scale; the effect is already visible at 36
  // ranks).
  const std::size_t n = 8;
  const auto dims = std::array<int, 3>{6, 6, 1};
  const auto decomp = domain::Decomposition::uniform(dims);
  const auto tp = make_particles(720, 7);

  auto run = [&](int n_groups) {
    parx::Runtime rt(36);
    std::uint64_t max_in = 0;
    rt.run([&](parx::Comm& world) {
      ParallelPmParams params;
      params.n_mesh = n;
      params.conversion.n_groups = n_groups;
      ParallelPm pm(world, params);
      pm.update_domain(decomp.box_of(world.rank()));
      world.barrier();
      if (world.rank() == 0) world.ledger().reset();
      world.barrier();

      std::vector<Vec3> lpos;
      std::vector<double> lmass;
      for (std::size_t i = 0; i < tp.pos.size(); ++i) {
        if (decomp.find_domain(tp.pos[i]) == world.rank()) {
          lpos.push_back(tp.pos[i]);
          lmass.push_back(tp.mass[i]);
        }
      }
      std::vector<Vec3> lacc(lpos.size());
      pm.accelerations(lpos, lmass, lacc);
      world.barrier();
      if (world.rank() == 0) max_in = world.ledger().totals().max_in_messages;
    });
    return max_in;
  };

  const auto direct = run(1);
  const auto relay = run(4);
  EXPECT_GT(direct, relay) << "relay must reduce the busiest endpoint";
  EXPECT_GE(direct, 30u);  // every rank's region overlaps every FFT slab here
}

TEST(MeshConverter, RespectsExplicitFftCount) {
  parx::run_ranks(6, [](parx::Comm& world) {
    ConverterParams params;
    params.n_mesh = 16;
    params.n_fft = 3;
    MeshConverter conv(world, params);
    EXPECT_EQ(conv.is_fft_rank(), world.rank() < 3);
    if (conv.is_fft_rank()) {
      EXPECT_EQ(conv.fft_comm().size(), 3);
    }
  });
}

}  // namespace
}  // namespace greem::pm
