// Domain decomposition tests: multi-section geometry, equal-count cuts,
// cost-weighted sampling, boundary smoothing, and particle exchange.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "core/particle.hpp"
#include "domain/exchange.hpp"
#include "domain/multisection.hpp"
#include "domain/sampling.hpp"
#include "parx/runtime.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace greem::domain {
namespace {

std::vector<Vec3> uniform_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> out(n);
  for (auto& p : out) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return out;
}

TEST(Decomposition, UniformGridGeometry) {
  const auto d = Decomposition::uniform({2, 3, 4});
  EXPECT_EQ(d.nranks(), 24);
  const Box b = d.box_of(d.rank_of(1, 2, 3));
  EXPECT_DOUBLE_EQ(b.lo.x, 0.5);
  EXPECT_DOUBLE_EQ(b.lo.y, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.lo.z, 0.75);
  EXPECT_DOUBLE_EQ(b.hi.z, 1.0);
}

TEST(Decomposition, RankCoordsRoundtrip) {
  const auto d = Decomposition::uniform({3, 2, 5});
  for (int r = 0; r < d.nranks(); ++r) {
    const auto c = d.coords_of(r);
    EXPECT_EQ(d.rank_of(c[0], c[1], c[2]), r);
  }
}

TEST(Decomposition, BoxesTileTheUnitCube) {
  const auto samples = uniform_samples(5000, 1);
  const auto d = build_multisection({3, 2, 2}, samples);
  double vol = 0;
  for (const auto& b : d.boxes()) vol += b.volume();
  EXPECT_NEAR(vol, 1.0, 1e-9);
  // Every point maps to exactly the box containing it.
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    const int r = d.find_domain(p);
    EXPECT_TRUE(d.box_of(r).contains(p));
  }
}

TEST(Decomposition, FlattenRoundtrip) {
  const auto samples = uniform_samples(2000, 3);
  const auto d = build_multisection({2, 3, 2}, samples);
  const auto flat = d.flatten();
  const auto d2 = Decomposition::unflatten({2, 3, 2}, flat);
  for (int r = 0; r < d.nranks(); ++r) {
    EXPECT_DOUBLE_EQ(d.box_of(r).lo.x, d2.box_of(r).lo.x);
    EXPECT_DOUBLE_EQ(d.box_of(r).hi.y, d2.box_of(r).hi.y);
    EXPECT_DOUBLE_EQ(d.box_of(r).lo.z, d2.box_of(r).lo.z);
  }
}

TEST(Multisection, EqualCountsForUniformSamples) {
  const auto samples = uniform_samples(40000, 4);
  const auto d = build_multisection({4, 2, 2}, samples);
  std::vector<double> counts(static_cast<std::size_t>(d.nranks()), 0.0);
  for (const auto& p : samples) counts[static_cast<std::size_t>(d.find_domain(p))] += 1;
  const auto s = summarize(counts);
  EXPECT_LT(s.imbalance(), 1.1);
}

TEST(Multisection, ClusteredSamplesShrinkHotDomains) {
  // Dense Plummer clump: the domain containing the clump center must be
  // much smaller than the uniform-grid cell (paper Fig. 3 behaviour).
  auto ps = core::plummer_particles(20000, 1.0, {0.5, 0.5, 0.5}, 0.02, 5);
  std::vector<Vec3> samples;
  for (const auto& p : ps) samples.push_back(p.pos);
  const auto d = build_multisection({4, 4, 4}, samples);
  const int hot = d.find_domain({0.5, 0.5, 0.5});
  EXPECT_LT(d.box_of(hot).volume(), 0.3 / 64.0);
  // Sample counts stay balanced even though volumes differ wildly.
  std::vector<double> counts(static_cast<std::size_t>(d.nranks()), 0.0);
  for (const auto& p : samples) counts[static_cast<std::size_t>(d.find_domain(p))] += 1;
  EXPECT_LT(summarize(counts).imbalance(), 1.5);
}

TEST(Multisection, HandlesFewerSamplesThanDomains) {
  const auto d = build_multisection({4, 4, 4}, uniform_samples(10, 6));
  double vol = 0;
  for (const auto& b : d.boxes()) {
    EXPECT_GT(b.volume(), 0.0);
    vol += b.volume();
  }
  EXPECT_NEAR(vol, 1.0, 1e-9);
}

TEST(Smoother, ConvergesToStationaryBoundaries) {
  BoundarySmoother smoother(5);
  const auto fixed = Decomposition::uniform({2, 2, 2});
  Decomposition out = fixed;
  for (int i = 0; i < 10; ++i) out = smoother.smooth(fixed);
  for (std::size_t i = 0; i < fixed.xcuts.size(); ++i)
    EXPECT_NEAR(out.xcuts[i], fixed.xcuts[i], 1e-12);
}

TEST(Smoother, DampsSingleStepJumps) {
  BoundarySmoother smoother(5);
  auto a = Decomposition::uniform({2, 1, 1});
  smoother.smooth(a);
  // Jump the middle x cut from 0.5 to 0.7: the smoothed cut must move
  // toward 0.7 but by less than the full jump.
  auto b = a;
  b.xcuts[1] = 0.7;
  const auto out = smoother.smooth(b);
  EXPECT_GT(out.xcuts[1], 0.5);
  EXPECT_LT(out.xcuts[1], 0.7);
}

TEST(Smoother, KeepsCutsMonotone) {
  BoundarySmoother smoother(3);
  auto a = Decomposition::uniform({4, 1, 1});
  auto out = smoother.smooth(a);
  auto b = a;
  b.xcuts[1] = 0.4;
  b.xcuts[2] = 0.45;
  out = smoother.smooth(b);
  for (std::size_t i = 1; i < out.xcuts.size(); ++i)
    EXPECT_GT(out.xcuts[i], out.xcuts[i - 1]);
}

TEST(Smoother, HistoryRoundTripIsBitwise) {
  // Checkpoint support: a smoother rebuilt from history()/set_history()
  // must continue bitwise-identically to the original.
  BoundarySmoother a(5);
  auto d = Decomposition::uniform({2, 2, 2});
  a.smooth(d);
  d.xcuts[1] = 0.43;
  a.smooth(d);
  d.xcuts[1] = 0.57;
  a.smooth(d);

  BoundarySmoother b(5);
  b.set_history(a.history());

  auto next = Decomposition::uniform({2, 2, 2});
  next.xcuts[1] = 0.51;
  const auto fa = a.smooth(next).flatten();
  const auto fb = b.smooth(next).flatten();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i)
    EXPECT_EQ(std::memcmp(&fa[i], &fb[i], sizeof(double)), 0) << "cut " << i;
}

// --------------------------------------------------------- apportionment --

TEST(Apportionment, TotalsAreExact) {
  // Regression: per-rank llround() drifted the gathered total by a few
  // samples; largest-remainder apportionment must hit the target exactly.
  const std::vector<double> w{3.0, 1.0, 0.25, 5.5, 2.2};
  const std::vector<std::size_t> cap{100, 100, 100, 100, 100};
  for (std::size_t target : {1u, 7u, 37u, 100u, 499u}) {
    const auto q = apportion_samples(w, cap, target);
    EXPECT_EQ(std::accumulate(q.begin(), q.end(), std::size_t{0}), target) << target;
  }
  // Deterministic.
  const auto q1 = apportion_samples(w, cap, 37);
  const auto q2 = apportion_samples(w, cap, 37);
  EXPECT_EQ(q1, q2);
}

TEST(Apportionment, ZeroCostRankWithParticlesIsNeverStarved) {
  // Regression: a rank whose measured cost rounds to zero contributed no
  // samples, so its boundaries could never move.
  const std::vector<double> w{10.0, 0.0, 10.0};
  const std::vector<std::size_t> cap{50, 50, 50};
  const auto q = apportion_samples(w, cap, 20);
  EXPECT_GE(q[1], 1u);
  EXPECT_EQ(q[0] + q[1] + q[2], 20u);
  // But a rank with no particles gets nothing.
  const std::vector<std::size_t> cap2{50, 0, 50};
  const auto q2 = apportion_samples(w, cap2, 20);
  EXPECT_EQ(q2[1], 0u);
  EXPECT_EQ(q2[0] + q2[2], 20u);
}

TEST(Apportionment, RespectsCapacitiesAndSaturates) {
  // A huge weight cannot draw more samples than the rank has particles;
  // the overflow spills to the other ranks.
  const std::vector<double> w{1000.0, 1.0, 1.0};
  const std::vector<std::size_t> cap{3, 50, 50};
  const auto q = apportion_samples(w, cap, 40);
  EXPECT_EQ(q[0], 3u);
  EXPECT_EQ(q[0] + q[1] + q[2], 40u);
  // Target beyond the global capacity saturates at sum(cap).
  const std::vector<std::size_t> small{5, 7, 2};
  const auto qs = apportion_samples(w, small, 1000);
  EXPECT_EQ(qs[0], 5u);
  EXPECT_EQ(qs[1], 7u);
  EXPECT_EQ(qs[2], 2u);
}

TEST(Apportionment, AllZeroWeightsFallBackToCapacities) {
  const std::vector<double> w{0.0, 0.0, 0.0};
  const std::vector<std::size_t> cap{10, 30, 60};
  const auto q = apportion_samples(w, cap, 50);
  EXPECT_EQ(std::accumulate(q.begin(), q.end(), std::size_t{0}), 50u);
  EXPECT_GT(q[2], q[0]);  // uniform density: bigger rank, more samples
}

// ----------------------------------------------------- weighted sampling --

TEST(Sampling, WeightedWithoutReplacementPrefersHeavyItems) {
  std::vector<double> w(100, 1.0);
  for (std::size_t i = 0; i < 10; ++i) w[i] = 200.0;
  Rng rng(7);
  const auto idx = sample_weighted_without_replacement(w, 10, rng);
  ASSERT_EQ(idx.size(), 10u);
  for (std::size_t i = 1; i < idx.size(); ++i) EXPECT_LT(idx[i - 1], idx[i]);
  std::size_t heavy = 0;
  for (std::size_t i : idx) heavy += i < 10 ? 1 : 0;
  EXPECT_GE(heavy, 7u);
}

TEST(Sampling, FullRateSamplingGivesEqualCountCuts) {
  // Regression for the with-replacement bug: sampling every particle must
  // reproduce the particle set exactly, so the multisection cuts divide
  // the (clustered) particles almost perfectly evenly.  The old sampler
  // drew duplicates even at a 100% rate, skewing the cuts.
  parx::run_ranks(4, [](parx::Comm& comm) {
    auto ps = core::plummer_particles(3000, 1.0, {0.3, 0.3, 0.3}, 0.05,
                                      40 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<Vec3> local;
    for (const auto& p : ps) local.push_back(p.pos);
    const std::vector<double> w(local.size(), 1.0);
    SamplingParams sp;
    sp.target_samples = 12000;  // == global N: every particle is a sample
    const auto d = sample_and_decompose_weighted(comm, {2, 2, 1}, local, w, sp, 0);
    std::vector<double> counts(4, 0.0);
    for (const auto& p : local) counts[static_cast<std::size_t>(d.find_domain(p))] += 1;
    comm.allreduce_sum(std::span<double>(counts));
    EXPECT_LT(summarize(counts).imbalance(), 1.02);
  });
}

TEST(Sampling, EmptyAndZeroWeightRanksStayConsistent) {
  // Regression for the broadcast bug: ranks contributing zero samples
  // (no particles, or all-zero weights) must still end up with the same
  // decomposition as the root.
  parx::run_ranks(4, [](parx::Comm& comm) {
    std::vector<Vec3> local;
    std::vector<double> w;
    if (comm.rank() < 2) {  // ranks 2 and 3 hold nothing at all
      Rng rng(60 + static_cast<std::uint64_t>(comm.rank()));
      local.resize(800);
      for (auto& p : local) p = {rng.uniform(), rng.uniform(), rng.uniform()};
      // Rank 1 reports all-zero weights (cold start / idle domain).
      w.assign(local.size(), comm.rank() == 0 ? 1.0 : 0.0);
    }
    SamplingParams sp;
    sp.target_samples = 500;
    const auto d = sample_and_decompose_weighted(comm, {2, 2, 1}, local, w, sp, 2);
    const auto flat = d.flatten();
    auto flat0 = flat;
    comm.bcast(flat0, 0);
    for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_DOUBLE_EQ(flat[i], flat0[i]);
    double vol = 0;
    for (const auto& b : d.boxes()) vol += b.volume();
    EXPECT_NEAR(vol, 1.0, 1e-9);
  });
}

TEST(Sampling, PerParticleWeightsShrinkExpensiveRegions) {
  // Both ranks hold uniform particles, but the work sits at x < 0.25.
  // Unit weights (equal cost everywhere) leave the cut near 0.5;
  // per-particle weights pull it left.
  parx::run_ranks(2, [](parx::Comm& comm) {
    Rng rng(70 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<Vec3> local(3000);
    std::vector<double> w(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = {rng.uniform(), rng.uniform(), rng.uniform()};
      w[i] = local[i].x < 0.25 ? 20.0 : 0.05;
    }
    SamplingParams sp;
    sp.target_samples = 3000;
    const auto d = sample_and_decompose_weighted(comm, {2, 1, 1}, local, w, sp, 1);
    EXPECT_LT(d.xcuts[1], 0.4);
    const std::vector<double> unit(local.size(), 1.0);
    const auto du = sample_and_decompose_weighted(comm, {2, 1, 1}, local, unit, sp, 1);
    EXPECT_GT(du.xcuts[1], 0.45);  // unit weights: cut stays near the middle
  });
}

TEST(Sampling, CollectiveDecompositionIsConsistentAcrossRanks) {
  parx::run_ranks(4, [](parx::Comm& comm) {
    Rng rng(10 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<Vec3> local(500);
    for (auto& p : local) p = {rng.uniform(), rng.uniform(), rng.uniform()};
    const std::vector<double> w(local.size(), 1.0);
    SamplingParams sp;
    sp.target_samples = 400;
    const auto d = sample_and_decompose_weighted(comm, {2, 2, 1}, local, w, sp, 3);
    // All ranks hold the same decomposition.
    const auto flat = d.flatten();
    auto flat0 = flat;
    comm.bcast(flat0, 0);
    for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_DOUBLE_EQ(flat[i], flat0[i]);
    // And it tiles the box.
    double vol = 0;
    for (const auto& b : d.boxes()) vol += b.volume();
    EXPECT_NEAR(vol, 1.0, 1e-9);
  });
}

TEST(Sampling, CostWeightingOversamplesExpensiveRanks) {
  // Rank 0's particles each cost 3x those of rank 1; its domain should
  // shrink.
  parx::run_ranks(2, [](parx::Comm& comm) {
    Rng rng(20 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<Vec3> local(2000);
    for (auto& p : local) {
      // Rank 0 owns x in [0, 0.5), rank 1 the rest.
      const double x0 = comm.rank() == 0 ? 0.0 : 0.5;
      p = {x0 + 0.5 * rng.uniform(), rng.uniform(), rng.uniform()};
    }
    const std::vector<double> w(local.size(), comm.rank() == 0 ? 3.0 : 1.0);
    SamplingParams sp;
    sp.target_samples = 2000;
    const auto d = sample_and_decompose_weighted(comm, {2, 1, 1}, local, w, sp, 1);
    // The x cut moves left of 0.5 so the expensive region gets less volume.
    EXPECT_LT(d.xcuts[1], 0.45);
  });
}

TEST(Exchange, RoutesParticlesToOwningRank) {
  parx::run_ranks(4, [](parx::Comm& comm) {
    const auto d = Decomposition::uniform({2, 2, 1});
    Rng rng(30 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<core::Particle> mine(100);
    for (auto& p : mine) {
      p.pos = {rng.uniform(), rng.uniform(), rng.uniform()};
      p.mass = 1.0;
      p.id = static_cast<std::uint64_t>(comm.rank()) * 1000 + rng.uniform_index(1000);
    }
    std::vector<Vec3> pos;
    for (const auto& p : mine) pos.push_back(p.pos);
    const auto dest = destinations(d, pos);
    auto mineAfter = exchange_by_rank<core::Particle>(comm, mine, dest);
    for (const auto& p : mineAfter) EXPECT_EQ(d.find_domain(p.pos), comm.rank());
    // Global particle count is conserved.
    const auto total = comm.allreduce_sum(static_cast<long>(mineAfter.size()));
    EXPECT_EQ(total, 400);
  });
}

}  // namespace
}  // namespace greem::domain
