// Distributed TreePM driver tests: the parallel simulation must match the
// serial TreePmForce oracle, agree across rank grids, conserve particles
// and momentum, balance load, and produce the Table-I style reports.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>

#include "ckpt/checkpoint.hpp"
#include "core/parallel_sim.hpp"
#include "core/treepm_force.hpp"
#include "parx/runtime.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace greem::core {
namespace {

std::vector<Particle> with_velocities(std::vector<Particle> ps, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& p : ps) p.mom = {rng.normal() * 0.2, rng.normal() * 0.2, rng.normal() * 0.2};
  return ps;
}

ParallelSimConfig test_config(std::array<int, 3> dims) {
  ParallelSimConfig cfg;
  cfg.dims = dims;
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.3;
  cfg.ncrit = 32;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  return cfg;
}

/// Run the parallel sim for `nsteps` and return all particles sorted by id.
std::vector<Particle> run_parallel(const ParallelSimConfig& cfg,
                                   const std::vector<Particle>& initial, int nsteps, double dt) {
  std::mutex mu;
  std::vector<Particle> collected;
  parx::run_ranks(cfg.dims[0] * cfg.dims[1] * cfg.dims[2], [&](parx::Comm& world) {
    // Rank 0 starts with everything; the first decomposition spreads it.
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= nsteps; ++s) sim.step(s * dt);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    collected.insert(collected.end(), loc.begin(), loc.end());
  });
  return sorted_by_id(collected);
}

TEST(ParallelSim, ConservesParticles) {
  auto initial = with_velocities(random_uniform_particles(500, 1.0, 1), 2);
  const auto out = run_parallel(test_config({2, 2, 1}), initial, 2, 0.005);
  ASSERT_EQ(out.size(), initial.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

TEST(ParallelSim, InitialForceMatchesTreePmOracle) {
  // The distributed force (ghost-exchange tree + parallel PM) against the
  // serial TreePmForce, itself Ewald-tested in core_test: the constructor's
  // cached acc_s + acc_l must reproduce TreePmForce::total to kernel
  // roundoff, on one rank and on four.
  struct Input {
    const char* name;
    std::vector<Particle> particles;
    // The clustered input walks exactly (theta = 0): at theta = 0.3 the
    // 27-image walk over local cells and the walk over locals + ghosts
    // accept different cells, a legitimate multipole-approximation spread
    // of p99 ~1e-3.  The uniform set measures the same errors at 0.3 as
    // at 0: at this N the walks open every cell in range either way.
    double theta;
  };
  for (const Input& in :
       {Input{"uniform", random_uniform_particles(400, 1.0, 11), 0.3},
        Input{"clustered", clustered_particles(400, 1.0, 3, 0.7, 0.03, 12), 0.0}}) {
    TreePmParams params;
    params.pm.n_mesh = 16;
    params.theta = in.theta;
    params.ncrit = 32;
    params.eps = 1e-3;
    const auto pos = positions_of(in.particles);
    const auto mass = masses_of(in.particles);
    std::vector<Vec3> ref(pos.size());
    TreePmForce(params).total(pos, mass, ref);

    for (const std::array<int, 3> dims : {std::array{1, 1, 1}, std::array{2, 2, 1}}) {
      SCOPED_TRACE(std::string(in.name) + " on " + std::to_string(dims[0] * dims[1]) +
                   " rank(s)");
      auto cfg = test_config(dims);  // same n_mesh, ncrit, eps as params
      cfg.theta = in.theta;
      const auto out = run_parallel(cfg, in.particles, 0, 0.0);
      ASSERT_EQ(out.size(), in.particles.size());
      std::vector<double> err, err_short_only;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i].id, i);
        const double scale = std::max(ref[i].norm(), 1e-12);
        err.push_back((out[i].acc_s + out[i].acc_l - ref[i]).norm() / scale);
        err_short_only.push_back((out[i].acc_s - ref[i]).norm() / scale);
      }
      EXPECT_LE(percentile(err, 99), 1e-6);
      // Not vacuous: dropping the PM half of the split misses by orders of
      // magnitude more than the gate.
      EXPECT_GT(percentile(err_short_only, 99), 1e-2);
    }
  }
}

TEST(ParallelSim, MatchesSingleRank) {
  // Same particles, same force parameters, same schedule: the 4-rank run
  // must track the 1-rank run to force-error accuracy.
  auto initial = with_velocities(random_uniform_particles(400, 1.0, 3), 4);
  const double dt = 0.004;
  const int nsteps = 3;
  const auto one = run_parallel(test_config({1, 1, 1}), initial, nsteps, dt);
  const auto four = run_parallel(test_config({2, 2, 1}), initial, nsteps, dt);
  ASSERT_EQ(one.size(), initial.size());
  ASSERT_EQ(four.size(), initial.size());

  std::vector<double> pos_err;
  for (std::size_t i = 0; i < four.size(); ++i) {
    ASSERT_EQ(four[i].id, one[i].id);
    pos_err.push_back(min_image(four[i].pos, one[i].pos).norm());
  }
  // Trajectories diverge only through force-approximation differences
  // (domain-dependent tree-walk grouping); they stay close over few steps.
  EXPECT_LT(percentile(pos_err, 95), 2e-5);
}

TEST(ParallelSim, RelayAndDirectConversionAgree) {
  auto initial = with_velocities(random_uniform_particles(400, 1.0, 5), 6);
  const double dt = 0.004;
  auto relay_cfg = test_config({2, 2, 2});
  relay_cfg.pm.conversion.method = pm::MeshConversion::kRelay;
  relay_cfg.pm.conversion.n_groups = 2;
  const auto direct = run_parallel(test_config({2, 2, 2}), initial, 2, dt);
  const auto relay = run_parallel(relay_cfg, initial, 2, dt);
  ASSERT_EQ(direct.size(), relay.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_LT(min_image(direct[i].pos, relay[i].pos).norm(), 1e-10);
    EXPECT_LT((direct[i].mom - relay[i].mom).norm(), 1e-10);
  }
}

TEST(ParallelSim, ConservesMomentum) {
  auto initial = random_uniform_particles(300, 1.0, 7);  // cold start
  const auto out = run_parallel(test_config({2, 1, 1}), initial, 3, 0.005);
  Vec3 net{};
  for (const auto& p : out) net += p.mom * p.mass;
  EXPECT_LT(net.norm(), 1e-4);
}

TEST(ParallelSim, ReportsTableOnePhases) {
  auto initial = with_velocities(random_uniform_particles(600, 1.0, 8), 9);
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, test_config({2, 2, 1}), std::move(local), 0.0);
    sim.step(0.005);
    const auto& rep = sim.last_step();
    // Every Table-I row name must be present.
    for (const char* phase : {"density assignment", "communication", "FFT",
                              "acceleration on mesh", "force interpolation"}) {
      EXPECT_GE(rep.pm.get(phase), 0.0) << phase;
      EXPECT_NE(rep.pm.entries().size(), 0u);
    }
    for (const char* phase : {"local tree", "communication", "tree construction",
                              "tree traversal", "force calculation"}) {
      EXPECT_GE(rep.pp.get(phase), 0.0) << phase;
    }
    for (const char* phase : {"sampling method", "particle exchange", "position update"}) {
      EXPECT_GE(rep.dd.get(phase), 0.0) << phase;
    }
    EXPECT_GT(rep.pp_stats.interactions, 0u);
    EXPECT_GT(rep.pp_stats.mean_ni(), 0.0);
    EXPECT_GT(rep.pp_stats.mean_nj(), 0.0);

    // Collective reductions used by the Table-I bench.
    const auto ppmax = allreduce_max(world, rep.pp);
    EXPECT_GE(ppmax.get("force calculation"), rep.pp.get("force calculation"));
    const auto total = allreduce_sum(world, rep.pp_stats);
    EXPECT_GE(total.interactions, rep.pp_stats.interactions);
  });
}

TEST(ParallelSim, LoadBalancerEqualizesClusteredCost) {
  // A strongly clustered distribution on 4 ranks: after a few steps the
  // per-rank force cost must be far better balanced than the particle
  // count under a static uniform grid.  Half the particles are sampled, so
  // the cost weights decide which ones: interaction imbalance 1.013 here,
  // against 1.139 with unit weights and 1.145 with every particle sampled
  // (the cuts then only equalize particle counts).
  auto initial = clustered_particles(2000, 1.0, 2, 0.8, 0.03, 10);
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = test_config({4, 1, 1});
    cfg.sampling.target_samples = 1000;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= 4; ++s) sim.step(s * 0.002);

    // Interactions per rank ~ force cost.
    const double mine = static_cast<double>(sim.last_step().pp_stats.interactions);
    auto all = world.allgatherv(std::span<const double>(&mine, 1));
    if (world.rank() == 0) {
      const auto s = summarize(all);
      EXPECT_LT(s.imbalance(), 1.05);

      // Static uniform decomposition for comparison: count interactions by
      // proxy of particle share in each uniform quarter (the clumps land in
      // few domains, imbalance >> 2).
      std::vector<double> static_counts(4, 0.0);
      for (const auto& p : initial)
        static_counts[std::min<std::size_t>(static_cast<std::size_t>(p.pos.x * 4), 3)] += 1;
      EXPECT_GT(summarize(static_counts).imbalance(), 1.5);
    }
  });
}

TEST(ParallelSim, RejectsMismatchedDims) {
  parx::run_ranks(3, [](parx::Comm& world) {
    EXPECT_THROW(ParallelSimulation(world, test_config({2, 2, 1}), {}, 0.0),
                 std::invalid_argument);
  });
}

TEST(ParallelSim, OverlapOnAndOffAreBitwiseIdentical) {
  // The overlap switch may only change the interleaving of the PM and PP
  // stages, never a result bit: full runs (including the pipelined PM,
  // ghost drains in arrival order, and the final synchronize) must agree
  // bitwise under both mesh-conversion methods.
  auto initial = with_velocities(random_uniform_particles(400, 1.0, 51), 52);
  const double dt = 0.004;
  auto run = [&](bool overlap, pm::MeshConversion method, int n_groups) {
    std::mutex mu;
    std::vector<Particle> collected;
    parx::run_ranks(8, [&](parx::Comm& world) {
      std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
      auto cfg = test_config({2, 2, 2});
      cfg.overlap = overlap;
      cfg.pm.conversion.method = method;
      cfg.pm.conversion.n_groups = n_groups;
      ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      for (int s = 1; s <= 2; ++s) sim.step(s * dt);
      sim.synchronize();
      std::lock_guard lock(mu);
      const auto loc = sim.local();
      collected.insert(collected.end(), loc.begin(), loc.end());
    });
    return sorted_by_id(collected);
  };
  struct Case {
    pm::MeshConversion method;
    int n_groups;
    const char* name;
  };
  for (const Case& tc : {Case{pm::MeshConversion::kDirect, 1, "direct"},
                         Case{pm::MeshConversion::kRelay, 2, "relay"}}) {
    SCOPED_TRACE(tc.name);
    const auto off = run(false, tc.method, tc.n_groups);
    const auto on = run(true, tc.method, tc.n_groups);
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
      ASSERT_EQ(std::memcmp(&on[i], &off[i], sizeof(Particle)), 0)
          << "overlap ON diverged from OFF at particle " << i;
    }
  }

  // The switch is scheduling, not physics: checkpoints written with one
  // setting must restore under the other, so it stays out of the
  // fingerprint.
  auto cfg_on = test_config({2, 2, 2});
  auto cfg_off = cfg_on;
  cfg_on.overlap = true;
  EXPECT_EQ(config_fingerprint(cfg_on), config_fingerprint(cfg_off));
}

// ---------------------------------------------------------- determinism --

TEST(ParallelSim, BitwiseDeterministicAcrossThreadCounts) {
  // The interaction-count cost weighting makes the cuts -- and therefore
  // every accumulated acceleration -- independent of the intra-rank thread
  // count: a clustered IC on 8 ranks must evolve bitwise identically on a
  // 1-thread and a 4-thread pool.
  auto initial = with_velocities(clustered_particles(3000, 1.0, 2, 0.8, 0.03, 61), 62);
  auto run = [&] {
    std::mutex mu;
    std::vector<Particle> collected;
    parx::run_ranks(8, [&](parx::Comm& world) {
      std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
      auto cfg = test_config({2, 2, 2});
      cfg.sampling.target_samples = 4000;
      ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      for (int s = 1; s <= 3; ++s) sim.step(s * 0.002);
      sim.synchronize();
      std::lock_guard lock(mu);
      const auto loc = sim.local();
      collected.insert(collected.end(), loc.begin(), loc.end());
    });
    return sorted_by_id(collected);
  };
  const std::size_t hw = num_threads();
  set_num_threads(1);
  const auto serial = run();
  set_num_threads(4);
  const auto threaded = run();
  set_num_threads(hw);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(std::memcmp(&serial[i], &threaded[i], sizeof(Particle)), 0)
        << "thread counts diverged at particle " << i;
  }
}

// ------------------------------------------------------------- sentinel --

TEST(Sentinel, CatchesNaNPoisoningOnEveryRank) {
  auto initial = with_velocities(random_uniform_particles(300, 1.0, 21), 22);
  std::atomic<int> violations{0};
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, test_config({2, 2, 1}), std::move(local), 0.0);
    sim.step(0.002);
    // Flip one mass to NaN on one rank: the kick poisons that particle's
    // momentum; the sentinel's global non-finite scrub must fire on ALL
    // ranks together (it compares the same allreduced tally).
    if (world.rank() == 1) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass = std::numeric_limits<double>::quiet_NaN();
    }
    try {
      sim.step(0.004);
      ADD_FAILURE() << "sentinel missed NaN corruption on rank " << world.rank();
    } catch (const SentinelError& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
      violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 4) << "the sentinel throw must be collective";
}

TEST(Sentinel, CatchesMassDriftAndRecoveryRollsItBack) {
  const std::string dir = testing::TempDir() + "/sentinel_rollback";
  std::filesystem::remove_all(dir);
  auto initial = with_velocities(random_uniform_particles(300, 1.0, 31), 32);
  const double dt = 0.002;
  const auto cfg = test_config({2, 1, 1});

  // Reference: the same schedule with no corruption.
  std::mutex ref_mu;
  std::vector<Particle> expected;
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= 3; ++s) sim.step(s * dt);
    sim.synchronize();
    std::lock_guard lock(ref_mu);
    const auto loc = sim.local();
    expected.insert(expected.end(), loc.begin(), loc.end());
  });
  expected = sorted_by_id(expected);

  std::atomic<int> violations{0};
  std::mutex mu;
  std::vector<Particle> collected;
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(1 * dt);
    sim.checkpoint(dir, /*keep_last=*/2);
    // Silently grow one particle's mass (the bit-flip-past-the-CRC model).
    if (world.rank() == 0) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass *= 1.5;
    }
    try {
      sim.step(2 * dt);
      ADD_FAILURE() << "sentinel missed mass drift on rank " << world.rank();
    } catch (const SentinelError& e) {
      EXPECT_NE(std::string(e.what()).find("mass"), std::string::npos) << e.what();
      violations.fetch_add(1);
    }
    // Standard rollback-recovery path: rendezvous, restore, retry.
    world.fault_recover();
    const auto latest = ckpt::find_latest(dir);
    ASSERT_TRUE(latest.has_value());
    sim.restore_checkpoint(*latest);
    sim.step(2 * dt);
    sim.step(3 * dt);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    collected.insert(collected.end(), loc.begin(), loc.end());
  });
  EXPECT_EQ(violations.load(), 2);
  collected = sorted_by_id(collected);
  ASSERT_EQ(collected.size(), expected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&collected[i], &expected[i], sizeof(Particle)), 0)
        << "post-rollback state diverged at particle " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(Sentinel, DisabledSentinelLetsCorruptionThrough) {
  auto initial = with_velocities(random_uniform_particles(200, 1.0, 41), 42);
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = test_config({2, 1, 1});
    cfg.sentinel.every = 0;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(0.002);
    if (world.rank() == 0) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass *= 1.5;
    }
    EXPECT_NO_THROW(sim.step(0.004));
  });
}

}  // namespace
}  // namespace greem::core
