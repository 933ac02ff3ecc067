// Octree construction invariants, Barnes-modified group traversal against
// direct summation, cutoff pruning, and ghost selection.

#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_force.hpp"
#include "core/particle.hpp"
#include "core/tree_force.hpp"
#include "tree/ghost.hpp"
#include "tree/octree.hpp"
#include "tree/traversal.hpp"
#include "pp/cutoff.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace greem::tree {
namespace {

std::vector<Vec3> random_positions(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pos(n);
  for (auto& p : pos) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pos;
}

TEST(Octree, ConservesMassAndCenterOfMass) {
  const auto pos = random_positions(500, 1);
  Rng rng(2);
  std::vector<double> mass(pos.size());
  for (auto& m : mass) m = rng.uniform(0.5, 1.5);

  Octree tree(pos, mass);
  double total = 0;
  Vec3 com{};
  for (std::size_t i = 0; i < pos.size(); ++i) {
    total += mass[i];
    com += pos[i] * mass[i];
  }
  com /= total;
  EXPECT_NEAR(tree.root().mass, total, 1e-12);
  EXPECT_NEAR(tree.root().com.x, com.x, 1e-12);
  EXPECT_NEAR(tree.root().com.y, com.y, 1e-12);
  EXPECT_NEAR(tree.root().com.z, com.z, 1e-12);
}

TEST(Octree, NodesOwnConsistentParticleRanges) {
  const auto pos = random_positions(300, 3);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  for (const auto& node : tree.nodes()) {
    EXPECT_LE(node.first + node.count, tree.num_particles());
    if (!node.is_leaf()) {
      // Children partition the parent's range.
      std::uint32_t sum = 0;
      for (std::uint32_t c = 0; c < node.nchildren; ++c)
        sum += tree.nodes()[node.first_child + c].count;
      EXPECT_EQ(sum, node.count);
    }
    // Particles lie inside the (slightly padded) cell cube.
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      const Vec3 p = tree.sorted_pos()[i];
      EXPECT_LE(std::abs(p.x - node.center.x), node.half * (1 + 1e-9) + 1e-12);
      EXPECT_LE(std::abs(p.y - node.center.y), node.half * (1 + 1e-9) + 1e-12);
      EXPECT_LE(std::abs(p.z - node.center.z), node.half * (1 + 1e-9) + 1e-12);
    }
  }
}

TEST(Octree, LeavesRespectCapacityAboveMaxDepth) {
  const auto pos = random_positions(2000, 4);
  std::vector<double> mass(pos.size(), 1.0);
  OctreeParams params;
  params.leaf_capacity = 16;
  Octree tree(pos, mass, params);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf() && node.half > 1e-5) {
      EXPECT_LE(node.count, 16u);
    }
  }
}

TEST(Octree, OrderIsAPermutation) {
  const auto pos = random_positions(777, 5);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  std::vector<bool> seen(pos.size(), false);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto orig = tree.original_index(static_cast<std::uint32_t>(i));
    ASSERT_LT(orig, pos.size());
    EXPECT_FALSE(seen[orig]);
    seen[orig] = true;
    EXPECT_EQ(tree.sorted_pos()[i], pos[orig]);
  }
}

TEST(Octree, EmptyAndSingleParticle) {
  std::vector<Vec3> none;
  std::vector<double> no_mass;
  Octree empty(none, no_mass);
  EXPECT_EQ(empty.root().count, 0u);

  const std::vector<Vec3> one{{0.5, 0.5, 0.5}};
  const std::vector<double> m{2.0};
  Octree single(one, m);
  EXPECT_EQ(single.root().count, 1u);
  EXPECT_DOUBLE_EQ(single.root().mass, 2.0);
}

TEST(Octree, GroupsPartitionAllParticles) {
  const auto pos = random_positions(1500, 6);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  const auto groups = tree.groups(100);
  std::uint32_t covered = 0, expect_first = 0;
  for (const auto g : groups) {
    const auto& node = tree.nodes()[g];
    EXPECT_EQ(node.first, expect_first);  // contiguous in tree order
    EXPECT_LE(node.count, 100u);
    covered += node.count;
    expect_first = node.first + node.count;
  }
  EXPECT_EQ(covered, 1500u);
}

class TraversalAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(TraversalAccuracy, NewtonWalkMatchesDirectWithinThetaBudget) {
  const double theta = GetParam();
  const auto pos = random_positions(800, 7);
  std::vector<double> mass(pos.size(), 1.0 / 800);

  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = theta;
  tp.ncrit = 32;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;
  tree_accelerations(tree, tp, walked);

  std::vector<double> rel;
  for (std::size_t i = 0; i < pos.size(); ++i)
    rel.push_back((walked[i] - direct[i]).norm() / std::max(direct[i].norm(), 1e-10));
  // Monopole-only BH: rms relative error scales roughly as theta^2.
  EXPECT_LT(rms(rel), 0.05 * theta * theta + 1e-4) << "theta = " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, TraversalAccuracy, ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Traversal, ThetaZeroIsExactDirectSum) {
  const auto pos = random_positions(200, 8);
  std::vector<double> mass(pos.size(), 1.0 / 200);
  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.0;  // never accept a multipole
  tp.ncrit = 16;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;
  tree_accelerations(tree, tp, walked);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(walked[i].x, direct[i].x, 1e-9);
    EXPECT_NEAR(walked[i].y, direct[i].y, 1e-9);
    EXPECT_NEAR(walked[i].z, direct[i].z, 1e-9);
  }
}

TEST(Traversal, CutoffWalkMatchesDirectShortRange) {
  const auto pos = random_positions(600, 9);
  std::vector<double> mass(pos.size(), 1.0 / 600);
  const double rcut = 0.15, eps2 = 1e-10;

  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_short_range(pos, mass, direct, rcut, eps2);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.0;  // exact: every source individually
  tp.rcut = rcut;
  tp.ncrit = 32;
  tp.eps2 = eps2;
  tp.kernel = KernelKind::kScalar;
  // Periodic: walk all 27 images.
  std::vector<Vec3> images;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) images.emplace_back(x, y, z);
  tree_accelerations(tree, tp, walked, images);

  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(walked[i].x, direct[i].x, 1e-8);
    EXPECT_NEAR(walked[i].y, direct[i].y, 1e-8);
    EXPECT_NEAR(walked[i].z, direct[i].z, 1e-8);
  }
}

TEST(Traversal, StatsCountInteractions) {
  const auto pos = random_positions(400, 10);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.ncrit = 50;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;
  std::vector<Vec3> acc(pos.size());
  const auto stats = tree_accelerations(tree, tp, acc);
  EXPECT_GT(stats.ngroups, 0u);
  EXPECT_EQ(stats.sum_ni, 400u);
  EXPECT_GT(stats.interactions, 0u);
  EXPECT_LE(stats.mean_ni(), 50.0);
  EXPECT_GT(stats.mean_nj(), 0.0);
}

TEST(Traversal, GroupSizeTradeoff) {
  // Larger <Ni> -> fewer groups and longer lists (the paper's knob).
  const auto pos = random_positions(2000, 11);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;

  tp.ncrit = 8;
  std::vector<Vec3> acc(pos.size());
  const auto small = tree_accelerations(tree, tp, acc);
  tp.ncrit = 256;
  std::fill(acc.begin(), acc.end(), Vec3{});
  const auto large = tree_accelerations(tree, tp, acc);
  EXPECT_GT(small.ngroups, large.ngroups);
  EXPECT_LT(small.mean_nj(), large.mean_nj());
}

TEST(Ghost, SelectsExactlyParticlesWithinRcut) {
  // Two domains split at x = 0.5; ghosts of rank 0 for rank 1 are the
  // particles within rcut of the [0.5, 1) slab (including across the wrap).
  const double rcut = 0.1;
  std::vector<Box> domains(2);
  domains[0] = {{0, 0, 0}, {0.5, 1, 1}};
  domains[1] = {{0.5, 0, 0}, {1, 1, 1}};

  std::vector<Vec3> pos{{0.45, 0.5, 0.5},   // near the cut: ghost for 1
                        {0.3, 0.5, 0.5},    // interior: not a ghost
                        {0.02, 0.5, 0.5}};  // near 0: ghost for 1 across wrap
  std::vector<double> mass{1, 2, 3};
  const auto exports = select_ghosts(pos, mass, domains, 0, rcut);
  ASSERT_EQ(exports.pos[1].size(), 2u);
  EXPECT_TRUE(exports.pos[0].empty());  // nothing to self
  // The wrap-around ghost arrives unwrapped at x slightly above 1.
  EXPECT_NEAR(exports.pos[1][1].x, 1.02, 1e-12);
  EXPECT_DOUBLE_EQ(exports.mass[1][1], 3.0);
}

TEST(Ghost, GhostForceEqualsFullShortRange) {
  // Rank-0 particles with ghosts from "rank 1" reproduce the full periodic
  // short-range force on rank-0 targets.
  Rng rng(13);
  const double rcut = 0.12;
  std::vector<Vec3> all(300);
  for (auto& p : all) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> mass(all.size(), 1.0 / 300);

  std::vector<Box> domains(2);
  domains[0] = {{0, 0, 0}, {0.5, 1, 1}};
  domains[1] = {{0.5, 0, 0}, {1, 1, 1}};
  std::vector<Vec3> local, remote;
  std::vector<double> lmass, rmass;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (domains[0].contains(all[i])) {
      local.push_back(all[i]);
      lmass.push_back(mass[i]);
    } else {
      remote.push_back(all[i]);
      rmass.push_back(mass[i]);
    }
  }
  const auto exports = select_ghosts(remote, rmass, domains, 1, rcut);
  // Periodic self-ghosts: domain 0 spans full y/z, so its own particles
  // serve it again through shifted images (exactly what the parallel
  // driver receives via the self slot of the alltoallv).
  const auto self_exports = select_ghosts(local, lmass, domains, 0, rcut);
  auto combined = local;
  auto cmass = lmass;
  combined.insert(combined.end(), exports.pos[0].begin(), exports.pos[0].end());
  cmass.insert(cmass.end(), exports.mass[0].begin(), exports.mass[0].end());
  combined.insert(combined.end(), self_exports.pos[0].begin(), self_exports.pos[0].end());
  cmass.insert(cmass.end(), self_exports.mass[0].begin(), self_exports.mass[0].end());

  // Reference: full periodic direct short-range on all particles.
  std::vector<Vec3> ref_all(all.size());
  core::direct_short_range(all, mass, ref_all, rcut, 1e-10);

  Octree tree(combined, cmass);
  TraversalParams tp;
  tp.theta = 0.0;
  tp.rcut = rcut;
  tp.ncrit = 16;
  tp.eps2 = 1e-10;
  tp.kernel = KernelKind::kScalar;
  std::vector<Vec3> acc(combined.size());
  tree_accelerations_targets(tree, tp, local.size(), acc);

  std::size_t li = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!domains[0].contains(all[i])) continue;
    EXPECT_NEAR(acc[li].x, ref_all[i].x, 1e-8);
    EXPECT_NEAR(acc[li].y, ref_all[i].y, 1e-8);
    EXPECT_NEAR(acc[li].z, ref_all[i].z, 1e-8);
    ++li;
  }
}


TEST(Quadrupole, KnownTensorForSymmetricPair) {
  // Two equal masses at +-d along x: Q_xx = 4 m d^2, Q_yy = Q_zz = -2 m d^2.
  const double d = 0.01, m = 0.5;
  const std::vector<Vec3> pos{{0.5 - d, 0.5, 0.5}, {0.5 + d, 0.5, 0.5}};
  const std::vector<double> mass{m, m};
  OctreeParams params;
  params.with_quadrupole = true;
  params.leaf_capacity = 8;
  Octree tree(pos, mass, params);
  const auto& q = tree.root().quad;
  EXPECT_NEAR(q[0], 4 * m * d * d, 1e-15);
  EXPECT_NEAR(q[3], -2 * m * d * d, 1e-15);
  EXPECT_NEAR(q[5], -2 * m * d * d, 1e-15);
  EXPECT_NEAR(q[1], 0.0, 1e-18);
  // Trace-free.
  EXPECT_NEAR(q[0] + q[3] + q[5], 0.0, 1e-18);
}

TEST(Quadrupole, ParallelAxisCombinationMatchesDirect) {
  // Root quadrupole from a deep tree must equal the direct tensor over
  // all particles about the global center of mass.
  const auto pos = random_positions(400, 21);
  Rng rng(22);
  std::vector<double> mass(pos.size());
  for (auto& m : mass) m = rng.uniform(0.5, 1.5);
  OctreeParams params;
  params.with_quadrupole = true;
  params.leaf_capacity = 4;  // force a deep hierarchy
  Octree tree(pos, mass, params);

  Vec3 com = tree.root().com;
  std::array<double, 6> direct{};
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const Vec3 d = pos[i] - com;
    const double d2 = d.norm2();
    direct[0] += mass[i] * (3 * d.x * d.x - d2);
    direct[1] += mass[i] * 3 * d.x * d.y;
    direct[2] += mass[i] * 3 * d.x * d.z;
    direct[3] += mass[i] * (3 * d.y * d.y - d2);
    direct[4] += mass[i] * 3 * d.y * d.z;
    direct[5] += mass[i] * (3 * d.z * d.z - d2);
  }
  for (int k = 0; k < 6; ++k)
    EXPECT_NEAR(tree.root().quad[static_cast<std::size_t>(k)],
                direct[static_cast<std::size_t>(k)], 1e-10);
}

TEST(Quadrupole, KernelImprovesFarFieldOverMonopole) {
  // A compact random cluster seen from afar: the quadrupole-corrected node
  // force must be much closer to the direct sum than the monopole alone.
  Rng rng(23);
  const double s = 0.02;
  std::vector<Vec3> cluster(50);
  std::vector<double> mass(50);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster[i] = {0.5 + rng.uniform(-s, s), 0.5 + rng.uniform(-s, s),
                  0.5 + rng.uniform(-s, s)};
    mass[i] = rng.uniform(0.5, 1.5);
  }
  OctreeParams params;
  params.with_quadrupole = true;
  Octree tree(cluster, mass, params);

  const std::vector<Vec3> target{{0.5 + 0.2, 0.5 + 0.13, 0.5 - 0.08}};
  std::vector<Vec3> direct(1), mono(1), quad(1);
  // direct sum
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    const Vec3 d = cluster[j] - target[0];
    const double r2 = d.norm2();
    direct[0] += d * (mass[j] / (r2 * std::sqrt(r2)));
  }
  // monopole only
  {
    const Vec3 d = tree.root().com - target[0];
    const double r2 = d.norm2();
    mono[0] += d * (tree.root().mass / (r2 * std::sqrt(r2)));
  }
  // monopole + quadrupole
  {
    pp::QuadSource src{tree.root().com, tree.root().mass, tree.root().quad};
    pp::pp_kernel_quadrupole(target, quad, std::span<const pp::QuadSource>(&src, 1), 0.0);
  }
  const double mono_err = (mono[0] - direct[0]).norm();
  const double quad_err = (quad[0] - direct[0]).norm();
  EXPECT_LT(quad_err, 0.25 * mono_err);
}

TEST(Quadrupole, TreeWalkBeatsMonopoleAtSameTheta) {
  auto particles = core::plummer_particles(800, 1.0, {0.5, 0.5, 0.5}, 0.05, 24);
  std::vector<Vec3> pos;
  for (const auto& p : particles) pos.push_back(p.pos);
  std::vector<double> mass(pos.size(), 1.0 / 800);

  std::vector<Vec3> direct(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  auto walk_error = [&](bool quadrupole) {
    core::TreeForceParams tp;
    tp.theta = 0.6;
    tp.eps2 = 1e-8;
    tp.quadrupole = quadrupole;
    std::vector<Vec3> acc(pos.size());
    core::tree_newton(pos, mass, acc, tp);
    std::vector<double> rel;
    for (std::size_t i = 0; i < pos.size(); ++i)
      rel.push_back((acc[i] - direct[i]).norm() / std::max(direct[i].norm(), 1e-10));
    return rms(rel);
  };
  const double mono = walk_error(false);
  const double quad = walk_error(true);
  EXPECT_LT(quad, 0.4 * mono);
}


TEST(Traversal, MultithreadedMatchesSingleThreaded) {
  // The MPI/OpenMP hybrid structure: the group loop is thread-parallel;
  // forces must be identical regardless of the worker count.
  const auto pos = random_positions(2000, 31);
  std::vector<double> mass(pos.size(), 1.0 / 2000);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.ncrit = 64;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;

  set_num_threads(1);
  std::vector<Vec3> acc1(pos.size());
  const auto s1 = tree_accelerations(tree, tp, acc1);
  set_num_threads(4);
  std::vector<Vec3> acc4(pos.size());
  const auto s4 = tree_accelerations(tree, tp, acc4);
  set_num_threads(1);

  EXPECT_EQ(s1.interactions, s4.interactions);
  EXPECT_EQ(s1.ngroups, s4.ngroups);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(acc1[i].x, acc4[i].x);
    EXPECT_DOUBLE_EQ(acc1[i].y, acc4[i].y);
    EXPECT_DOUBLE_EQ(acc1[i].z, acc4[i].z);
  }
}

TEST(Traversal, BitwiseDeterministicAcrossPoolSizes) {
  // Stronger form: the Newton kernel with an oversubscribed 8-thread pool
  // (this box may have fewer cores -- the steal pattern then varies wildly
  // between runs) must reproduce the single-thread forces *bitwise* and
  // the full traversal statistics exactly.  This is the property that lets
  // distributed runs validate against each other regardless of the
  // per-rank thread count.
  const auto pos = random_positions(3000, 77);
  std::vector<double> mass(pos.size());
  for (std::size_t i = 0; i < mass.size(); ++i)
    mass[i] = (1.0 + static_cast<double>(i % 7)) / 3000.0;
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.6;
  tp.ncrit = 32;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;

  set_num_threads(1);
  std::vector<Vec3> acc1(pos.size());
  const auto s1 = tree_accelerations(tree, tp, acc1);
  for (const std::size_t nt : {2, 8}) {
    set_num_threads(nt);
    std::vector<Vec3> accn(pos.size());
    const auto sn = tree_accelerations(tree, tp, accn);
    EXPECT_EQ(s1.ngroups, sn.ngroups);
    EXPECT_EQ(s1.sum_ni, sn.sum_ni);
    EXPECT_EQ(s1.sum_nj, sn.sum_nj);
    EXPECT_EQ(s1.interactions, sn.interactions);
    EXPECT_EQ(s1.nodes_visited, sn.nodes_visited);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(acc1[i].x, accn[i].x) << nt << " threads, particle " << i;
      EXPECT_EQ(acc1[i].y, accn[i].y) << nt << " threads, particle " << i;
      EXPECT_EQ(acc1[i].z, accn[i].z) << nt << " threads, particle " << i;
    }
  }
  set_num_threads(1);
}


TEST(Traversal, TreePotentialsMatchDirectPairSum) {
  const auto pos = random_positions(300, 41);
  std::vector<double> mass(pos.size(), 1.0 / 300);
  const double rcut = 0.12;

  // Direct reference: -m h(2r/rcut)/r over min-image pairs within rcut.
  std::vector<double> ref(pos.size(), 0.0);
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (i == j) continue;
      const double r = min_image(pos[i], pos[j]).norm();
      if (r >= rcut || r == 0.0) continue;
      ref[i] -= mass[j] * pp::h_p3m(2.0 * r / rcut) / r;
    }

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.0;  // exact walk
  tp.rcut = rcut;
  tp.ncrit = 32;
  tp.eps2 = 0.0;
  tp.kernel = KernelKind::kScalar;
  std::vector<Vec3> images;
  for (int x = -1; x <= 1; ++x)
    for (int y = -1; y <= 1; ++y)
      for (int z = -1; z <= 1; ++z) images.emplace_back(x, y, z);
  std::vector<double> pot(pos.size(), 0.0);
  const auto stats = tree_potentials(tree, tp, pot, images);
  EXPECT_GT(stats.interactions, 0u);
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_NEAR(pot[i], ref[i], 1e-6 * std::max(1.0, std::abs(ref[i])));
}

TEST(GroupCosts, SumToTraversalStats) {
  // Locals followed by "ghosts" (sources beyond n_targets), the parallel
  // rank layout: the per-group cost records must tile the traversal stats
  // exactly -- they are the same counters, just not collapsed.
  const auto pos = random_positions(600, 17);
  std::vector<double> mass(pos.size(), 1.0 / 600);
  const std::size_t n_targets = 400;

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.rcut = 0.25;
  tp.ncrit = 32;
  tp.eps2 = 1e-10;
  tp.kernel = KernelKind::kScalar;

  std::vector<Vec3> acc(pos.size());
  std::vector<GroupCost> costs;
  const auto stats = tree_accelerations_targets(tree, tp, n_targets, acc, {}, nullptr, &costs);

  ASSERT_EQ(costs.size(), stats.ngroups);
  std::uint64_t ni = 0, nj = 0, interactions = 0, ghosts = 0;
  for (const auto& gc : costs) {
    ni += gc.ni;
    nj += gc.nj;
    interactions += gc.interactions;
    ghosts += gc.ghost_sources;
    EXPECT_EQ(gc.interactions, static_cast<std::uint64_t>(gc.ni) * gc.nj);
    EXPECT_GE(gc.walk_s, 0.0);
    EXPECT_GE(gc.force_s, 0.0);
    EXPECT_GT(gc.half, 0.0);
    EXPECT_LT(gc.node, tree.nodes().size());
  }
  EXPECT_EQ(ni, stats.sum_ni);
  EXPECT_EQ(nj, stats.sum_nj);
  EXPECT_EQ(interactions, stats.interactions);
  EXPECT_EQ(ghosts, stats.ghost_sources);
  EXPECT_EQ(ni, n_targets);  // every target sits in exactly one group

  // With a 0.25 cutoff on clustered-random data some group actually opened
  // a ghost leaf; and when every particle is a target the count is zero.
  EXPECT_GT(stats.ghost_sources, 0u);
  std::vector<Vec3> acc_all(pos.size());
  const auto stats_all = tree_accelerations(tree, tp, acc_all);
  EXPECT_EQ(stats_all.ghost_sources, 0u);

  // Determinism modulo timings: a second run produces identical records.
  std::vector<Vec3> acc2(pos.size());
  std::vector<GroupCost> costs2;
  (void)tree_accelerations_targets(tree, tp, n_targets, acc2, {}, nullptr, &costs2);
  ASSERT_EQ(costs2.size(), costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs2[i].node, costs[i].node);
    EXPECT_EQ(costs2[i].ni, costs[i].ni);
    EXPECT_EQ(costs2[i].nj, costs[i].nj);
    EXPECT_EQ(costs2[i].ghost_sources, costs[i].ghost_sources);
  }
}

TEST(Traversal, PhantomWalksLikeScalarAndEvaluatesOnlyTargets) {
  // Locals interleaved in space with "ghosts" (original index >= n_targets),
  // so most groups are mixed.  The mixed-precision kPhantom kernel changes
  // only the arithmetic of the force: the walk and its statistics equal the
  // exact kernel's, ghost entries of acc are never written, and the local
  // forces agree to float precision.
  const auto pos = random_positions(600, 23);
  std::vector<double> mass(pos.size(), 1.0 / 600);
  const std::size_t n_targets = 400;
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.rcut = 0.25;
  tp.ncrit = 32;
  tp.eps2 = 1e-8;

  std::vector<Vec3> acc[2];
  TraversalStats stats[2];
  const KernelKind kinds[2] = {KernelKind::kScalar, KernelKind::kPhantom};
  for (int k = 0; k < 2; ++k) {
    tp.kernel = kinds[k];
    acc[k].assign(pos.size(), Vec3{});
    stats[k] = tree_accelerations_targets(tree, tp, n_targets, acc[k]);
    for (std::size_t i = n_targets; i < pos.size(); ++i) EXPECT_EQ(acc[k][i], Vec3{}) << i;
  }
  EXPECT_EQ(stats[1].ngroups, stats[0].ngroups);
  EXPECT_EQ(stats[1].sum_ni, stats[0].sum_ni);
  EXPECT_EQ(stats[1].sum_nj, stats[0].sum_nj);
  EXPECT_EQ(stats[1].interactions, stats[0].interactions);
  EXPECT_EQ(stats[1].nodes_visited, stats[0].nodes_visited);
  EXPECT_EQ(stats[1].ghost_sources, stats[0].ghost_sources);
  EXPECT_EQ(stats[0].sum_ni, n_targets);
  EXPECT_GT(stats[0].ghost_sources, 0u);
  for (std::size_t i = 0; i < n_targets; ++i)
    EXPECT_LT((acc[1][i] - acc[0][i]).norm(), 1e-4 * acc[0][i].norm()) << i;
}

}  // namespace
}  // namespace greem::tree
