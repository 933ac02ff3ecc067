// Tests of the force-split functions and the PP kernels: paper eq. (3)
// against direct numerical integration of the S2-S2 interaction, the
// k-space shape factor, the approximate rsqrt accuracy, and the phantom
// kernel against the exact scalar kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "pp/cutoff.hpp"
#include "pp/kernels.hpp"
#include "util/rng.hpp"

namespace greem::pp {
namespace {

TEST(Cutoff, BoundaryValues) {
  EXPECT_DOUBLE_EQ(g_p3m(0.0), 1.0);
  EXPECT_NEAR(g_p3m(2.0), 0.0, 1e-14);
  EXPECT_DOUBLE_EQ(g_p3m(2.5), 0.0);
  EXPECT_DOUBLE_EQ(g_p3m(100.0), 0.0);
}

TEST(Cutoff, ContinuousAndSmoothAtBranchPoint) {
  // The zeta branch at xi = 1 must keep value and slope continuous.
  const double eps = 1e-7;
  EXPECT_NEAR(g_p3m(1.0 - eps), g_p3m(1.0 + eps), 1e-6);
  const double dl = (g_p3m(1.0) - g_p3m(1.0 - eps)) / eps;
  const double dr = (g_p3m(1.0 + eps) - g_p3m(1.0)) / eps;
  EXPECT_NEAR(dl, dr, 1e-5);
}

TEST(Cutoff, MonotonicallyDecreasing) {
  double prev = g_p3m(0.0);
  for (double xi = 0.01; xi <= 2.0; xi += 0.01) {
    const double g = g_p3m(xi);
    EXPECT_LE(g, prev + 1e-12) << "at xi = " << xi;
    prev = g;
  }
}

class CutoffVsQuadrature : public ::testing::TestWithParam<double> {};

TEST_P(CutoffVsQuadrature, Eq3MatchesS2S2ForceIntegral) {
  // Paper: eq. (3) is the complement of the force between two S2 spheres
  // evaluated by direct spatial integration.
  const double xi = GetParam();
  EXPECT_NEAR(g_p3m(xi), g_p3m_reference(xi), 2e-6) << "xi = " << xi;
}

INSTANTIATE_TEST_SUITE_P(Samples, CutoffVsQuadrature,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 1.95));

TEST(Cutoff, S2FourierLimitsAndSeries) {
  EXPECT_NEAR(s2_fourier(1e-8), 1.0, 1e-12);
  // Series/exact crossover continuity (evaluate both branches at the
  // same point up to the last ulp around the threshold u = 0.2).
  EXPECT_NEAR(s2_fourier(0.2 - 1e-12), s2_fourier(0.2 + 1e-12), 1e-10);
  // Large-u falloff.
  EXPECT_LT(std::abs(s2_fourier(100.0)), 1e-3);
  // Known value check via independent evaluation at u = 2.
  const double u = 2.0;
  EXPECT_NEAR(s2_fourier(u), 12.0 * (2.0 - 2.0 * std::cos(u) - u * std::sin(u)) / 16.0, 1e-14);
}

TEST(Cutoff, EnclosedMassFraction) {
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(1.0), 1.0);
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(2.0), 1.0);
  EXPECT_NEAR(s2_enclosed_mass_fraction(0.5), 0.125 * (4 - 1.5), 1e-14);
  // Monotone.
  for (double s = 0.05; s < 1.0; s += 0.05)
    EXPECT_GT(s2_enclosed_mass_fraction(s + 0.05), s2_enclosed_mass_fraction(s));
}

TEST(Cutoff, PotentialCutoffConsistentWithForce) {
  // f = -d phi / dr with phi = -h(2r/rcut)/r and f = g(2r/rcut)/r^2
  // => g(xi) = h(xi) - xi h'(xi).
  for (double xi : {0.2, 0.5, 0.9, 1.1, 1.5, 1.9}) {
    const double d = 1e-5;
    const double hp = (h_p3m(xi + d) - h_p3m(xi - d)) / (2 * d);
    EXPECT_NEAR(g_p3m(xi), h_p3m(xi) - xi * hp, 1e-5) << "xi = " << xi;
  }
}

TEST(Cutoff, PotentialBoundaries) {
  EXPECT_DOUBLE_EQ(h_p3m(2.0), 0.0);
  EXPECT_DOUBLE_EQ(h_p3m(3.0), 0.0);
  EXPECT_NEAR(h_p3m(1e-6), 1.0, 1e-5);
}

TEST(Rsqrt, ApproximationReaches24Bits) {
  Rng rng(1);
  double max_rel = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = std::exp(rng.uniform(-20.0, 20.0));
    const double approx = approx_rsqrt(x);
    const double exact = 1.0 / std::sqrt(x);
    max_rel = std::max(max_rel, std::abs(approx - exact) / exact);
  }
  // Paper: 8-bit seed + third-order step -> 24-bit accuracy.
  EXPECT_LT(max_rel, std::pow(2.0, -24));
}

TEST(InteractionList, PadRoundsToFour) {
  InteractionList list;
  list.add({0, 0, 0}, 1.0);
  list.pad4();
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(list.m[1], 0.0);
  list.add({1, 1, 1}, 2.0);
  list.pad4();
  EXPECT_EQ(list.size(), 8u);
}

TEST(Kernels, ScalarMatchesAnalyticPair) {
  // One source at distance r: |a| = m g(2r/rcut) / r^2 (eps = 0 variant via
  // tiny eps).
  InteractionList list;
  list.add({0.3, 0.0, 0.0}, 2.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  const double rcut = 1.0;
  pp_kernel_scalar(xi, acc, list, rcut, 0.0);
  const double expected = 2.0 * g_p3m(0.6) / (0.3 * 0.3);
  EXPECT_NEAR(acc[0].x, expected, 1e-12);
  EXPECT_NEAR(acc[0].y, 0.0, 1e-15);
}

TEST(Kernels, PhantomMatchesScalar) {
  Rng rng(17);
  const std::size_t ni = 37, nj = 101;
  std::vector<Vec3> xi(ni);
  for (auto& p : xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  InteractionList list;
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));

  const double rcut = 0.4, eps2 = 1e-6;
  std::vector<Vec3> a_scalar(ni), a_phantom(ni);
  pp_kernel_scalar(xi, a_scalar, list, rcut, eps2);
  list.pad4();
  pp_kernel_phantom(xi, a_phantom, list, rcut, eps2);
  for (std::size_t i = 0; i < ni; ++i) {
    // Error budget: the ~24-bit approximate rsqrt, relative to the
    // acceleration magnitude (individual near-neighbor terms dominate).
    const double scale = std::max(1.0, a_scalar[i].norm());
    EXPECT_NEAR(a_phantom[i].x, a_scalar[i].x, 5e-7 * scale);
    EXPECT_NEAR(a_phantom[i].y, a_scalar[i].y, 5e-7 * scale);
    EXPECT_NEAR(a_phantom[i].z, a_scalar[i].z, 5e-7 * scale);
  }
}

TEST(Kernels, EveryPhantomVariantMatchesScalar) {
  // Deliberately ni % 4 != 0 and nj % 4 != 0: exercises the i-tail of the
  // blocked kernels and the padded j-tail in the same run.
  Rng rng(91);
  const std::size_t ni = 37, nj = 101;
  std::vector<Vec3> xi(ni);
  for (auto& p : xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  InteractionList list;
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));

  const double rcut = 0.4, eps2 = 1e-6;
  std::vector<Vec3> a_scalar(ni);
  pp_kernel_scalar(xi, a_scalar, list, rcut, eps2);
  list.pad4();
  for (const PhantomVariant v :
       {PhantomVariant::kBasic, PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512}) {
    if (!phantom_variant_available(v)) continue;
    std::vector<Vec3> a(ni);
    pp_kernel_phantom_variant(v, xi, a, list, rcut, eps2);
    for (std::size_t i = 0; i < ni; ++i) {
      const double scale = std::max(1.0, a_scalar[i].norm());
      EXPECT_NEAR(a[i].x, a_scalar[i].x, 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(a[i].y, a_scalar[i].y, 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(a[i].z, a_scalar[i].z, 5e-7 * scale) << phantom_variant_name(v);
    }
  }
}

TEST(Kernels, PhantomDispatchResolvesToAvailableVariant) {
  const PhantomVariant d = phantom_dispatch();
  EXPECT_NE(d, PhantomVariant::kAuto);
  EXPECT_TRUE(phantom_variant_available(d));

  // Overrides resolve to something runnable (kAuto included), and the
  // original dispatch can be restored.
  set_phantom_variant(PhantomVariant::kBasic);
  EXPECT_EQ(phantom_dispatch(), PhantomVariant::kBasic);
  set_phantom_variant(PhantomVariant::kAuto);
  EXPECT_NE(phantom_dispatch(), PhantomVariant::kAuto);
  EXPECT_TRUE(phantom_variant_available(phantom_dispatch()));
  set_phantom_variant(d);
  EXPECT_EQ(phantom_dispatch(), d);
}

TEST(Kernels, SelfInteractionIsZero) {
  const std::vector<Vec3> xi{{0.5, 0.5, 0.5}};
  InteractionList list;
  list.add({0.5, 0.5, 0.5}, 3.0);
  list.pad4();
  std::vector<Vec3> acc(1);
  pp_kernel_phantom(xi, acc, list, 0.3, 1e-8);
  EXPECT_DOUBLE_EQ(acc[0].x, 0.0);
  EXPECT_DOUBLE_EQ(acc[0].y, 0.0);
  EXPECT_DOUBLE_EQ(acc[0].z, 0.0);
}

TEST(Kernels, CutoffKillsDistantSources) {
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  InteractionList list;
  list.add({0.5, 0.0, 0.0}, 10.0);  // beyond rcut = 0.4
  list.pad4();
  std::vector<Vec3> acc(1);
  pp_kernel_phantom(xi, acc, list, 0.4, 1e-10);
  // The branchless clamp evaluates the polynomial at the edge xi = 2 where
  // it is analytically zero; floating point leaves an O(1e-16) residue.
  EXPECT_NEAR(acc[0].x, 0.0, 1e-12);
  std::vector<Vec3> acc2(1);
  pp_kernel_scalar(xi, acc2, list, 0.4, 1e-10);
  EXPECT_DOUBLE_EQ(acc2[0].x, 0.0);
}

TEST(Kernels, NewtonMatchesInverseSquare) {
  InteractionList list;
  list.add({0.0, 0.2, 0.0}, 4.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  pp_kernel_newton(xi, acc, list, 0.0);
  EXPECT_NEAR(acc[0].y, 4.0 / 0.04, 1e-9);
}

TEST(Kernels, NewtonSkipsExactSelfWithZeroSoftening) {
  const std::vector<Vec3> xi{{0.1, 0.2, 0.3}};
  InteractionList list;
  list.add({0.1, 0.2, 0.3}, 1.0);
  std::vector<Vec3> acc(1);
  pp_kernel_newton(xi, acc, list, 0.0);
  EXPECT_TRUE(std::isfinite(acc[0].x));
  EXPECT_DOUBLE_EQ(acc[0].x, 0.0);
}

TEST(Kernels, PotentialMatchesAnalyticPair) {
  InteractionList list;
  list.add({0.25, 0.0, 0.0}, 3.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<double> pot(1, 0.0);
  const double rcut = 1.0;
  pp_potential_scalar(xi, pot, list, rcut, 0.0);
  EXPECT_NEAR(pot[0], -3.0 * h_p3m(0.5) / 0.25, 1e-9);
}

TEST(Kernels, SofteningRegularizesCloseEncounters) {
  InteractionList list;
  list.add({1e-8, 0.0, 0.0}, 1.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  const double eps2 = 1e-6;
  pp_kernel_scalar(xi, acc, list, 1.0, eps2);
  // Plummer-softened: |a| ~ m * dx / eps^3 for dx << eps.
  EXPECT_NEAR(acc[0].x, 1e-8 / std::pow(1e-6, 1.5), 1e-3 * acc[0].x + 1e-12);
}


// ---- mixed-precision kernel (pp_kernel_phantom_sp, the engine's kPhantom) --

/// A compact target group (the traversal's shape) and `nj` sources around
/// it, some inside the softening scale of a target.
struct SpCase {
  std::vector<Vec3> xi;
  InteractionList list;
};

SpCase make_sp_case(std::size_t ni, std::size_t nj, std::uint64_t seed) {
  Rng rng(seed);
  SpCase c;
  c.xi.resize(ni);
  for (auto& p : c.xi)
    p = {0.4 + rng.uniform(0.0, 0.05), 0.3 + rng.uniform(0.0, 0.05),
         0.6 + rng.uniform(0.0, 0.05)};
  for (std::size_t j = 0; j < nj; ++j) {
    const Vec3 near = c.xi[j % ni] + Vec3{rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3),
                                          rng.uniform(-1e-3, 1e-3)};
    const Vec3 far{rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.6), rng.uniform(0.4, 0.9)};
    c.list.add(j % 7 == 0 ? near : far, rng.uniform(0.5, 2.0));
  }
  return c;
}

/// Runs `body` once per mixed-precision variant this host can execute,
/// with the dispatch switched to it, and restores the dispatch.
template <class F>
void for_each_sp_variant(F body) {
  const PhantomVariant saved = phantom_dispatch();
  for (const PhantomVariant v : {PhantomVariant::kScalar, PhantomVariant::kBasic,
                                 PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512}) {
    if (!phantom_variant_available(v)) continue;
    set_phantom_variant(v);
    SCOPED_TRACE(phantom_variant_name(v));
    body(v);
  }
  set_phantom_variant(saved);
}

// Target counts around the 4-wide tile (every tail length) and list
// lengths off the 16-lane width, one of them past the 512-source float
// partial-sum block.
constexpr std::size_t kSpNi[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
constexpr std::size_t kSpNj[] = {1, 5, 17, 100, 531, 1100};

TEST(Kernels, MixedPrecisionTracksScalarPerTarget) {
  const double rcut = 0.3, eps2 = 1e-6;
  for_each_sp_variant([&](PhantomVariant v) {
    std::vector<double> rel;
    for (const std::size_t ni : kSpNi)
      for (const std::size_t nj : kSpNj) {
        const SpCase c = make_sp_case(ni, nj, 1000 * ni + nj);
        std::vector<Vec3> ref(ni), sp(ni);
        pp_kernel_scalar(c.xi, ref, c.list, rcut, eps2);
        pp_kernel_phantom_sp(c.xi, sp, c.list, rcut, eps2);
        for (std::size_t i = 0; i < ni; ++i) {
          if (v == PhantomVariant::kScalar) {
            EXPECT_EQ(sp[i], ref[i]);  // GREEM_KERNEL=scalar is the exact kernel
            continue;
          }
          rel.push_back((sp[i] - ref[i]).norm() / ref[i].norm());
        }
      }
    if (v == PhantomVariant::kScalar) return;
    // Relative error per target over these 468 targets, measured (basic,
    // avx2, avx512): p50 3.1e-7, 3.0e-7, 2.6e-7; p90 2.1e-6 for each; max
    // 1.1e-5 for each -- the float offsets of targets with ~20 sources
    // inside the softening length.  Gates at ~3x.
    std::sort(rel.begin(), rel.end());
    EXPECT_LT(rel[rel.size() / 2], 1e-6);
    EXPECT_LT(rel[rel.size() * 9 / 10], 6.5e-6);
    EXPECT_LT(rel.back(), 3.5e-5);
  });
}

TEST(Kernels, MixedPrecisionIsBitwiseInvariantUnderTargetPermutation) {
  // The float origin is the midpoint of the targets' bounding box and the
  // ni % 4 tail runs through the same tile, so a target's result does not
  // depend on its slot: rotating and reversing the targets moves every
  // target to another tile position (and in or out of the tail).
  const double rcut = 0.3, eps2 = 1e-6;
  for_each_sp_variant([&](PhantomVariant) {
    for (const std::size_t ni : {5u, 9u, 33u}) {
      const SpCase c = make_sp_case(ni, 531, 77 + ni);
      std::vector<Vec3> base(ni);
      pp_kernel_phantom_sp(c.xi, base, c.list, rcut, eps2);
      for (const bool reverse : {false, true}) {
        std::vector<std::size_t> order(ni);
        for (std::size_t k = 0; k < ni; ++k) order[k] = reverse ? ni - 1 - k : (k + 1) % ni;
        std::vector<Vec3> xi(ni), got(ni);
        for (std::size_t k = 0; k < ni; ++k) xi[k] = c.xi[order[k]];
        pp_kernel_phantom_sp(xi, got, c.list, rcut, eps2);
        for (std::size_t k = 0; k < ni; ++k)
          EXPECT_EQ(std::memcmp(&got[k], &base[order[k]], sizeof(Vec3)), 0)
              << "ni " << ni << " target " << order[k];
      }
    }
  });
}

TEST(Kernels, MixedPrecisionSelfInteractionAndPaddingAreForceNeutral) {
  // A source on the target contributes exactly nothing, and so do the far
  // zero-mass entries of pad4() and of the kernel's own 16-lane padding:
  // padded and unpadded lists give the same bits, and accumulation adds
  // into acc.
  for_each_sp_variant([&](PhantomVariant) {
    const std::vector<Vec3> self{{0.5, 0.5, 0.5}};
    InteractionList only_self;
    only_self.add(self[0], 3.0);
    std::vector<Vec3> acc(1);
    pp_kernel_phantom_sp(self, acc, only_self, 0.3, 1e-8);
    EXPECT_EQ(acc[0], Vec3{});
    only_self.pad4();
    pp_kernel_phantom_sp(self, acc, only_self, 0.3, 1e-8);
    EXPECT_EQ(acc[0], Vec3{});

    SpCase c = make_sp_case(7, 101, 5);
    c.list.add(c.xi[3], 2.0);  // a self term inside a real list
    std::vector<Vec3> unpadded(7), padded(7, Vec3{1, 2, 3});
    pp_kernel_phantom_sp(c.xi, unpadded, c.list, 0.3, 1e-6);
    c.list.pad4();
    pp_kernel_phantom_sp(c.xi, padded, c.list, 0.3, 1e-6);
    for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(padded[i], (unpadded[i] + Vec3{1, 2, 3}));
  });
}

TEST(Kernels, MixedPrecisionCutoffKillsDistantSources) {
  for_each_sp_variant([&](PhantomVariant) {
    const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
    InteractionList list;
    list.add({0.5, 0.0, 0.0}, 10.0);  // beyond rcut = 0.4
    std::vector<Vec3> acc(1);
    pp_kernel_phantom_sp(xi, acc, list, 0.4, 1e-10);
    // Exactly zero: beyond the cutoff the term is masked, not left to the
    // polynomial's float residue at the clamped edge (~7e-7 x m / r^2).
    EXPECT_EQ(acc[0], Vec3{});
  });
}

TEST(Kernels, MixedPrecisionDispatchRunsEachVariantsOwnCode) {
  // Every variant seeds rsqrt differently (bit trick, _mm256_rsqrt_ps,
  // _mm512_rsqrt14_ps, exact), so on a 531-source list no two of them give
  // the same bits for every target.  A variant routed to another's code
  // would pass every accuracy test above; it fails here.
  const SpCase c = make_sp_case(33, 531, 4242);
  std::vector<std::pair<PhantomVariant, std::vector<Vec3>>> out;
  for_each_sp_variant([&](PhantomVariant v) {
    std::vector<Vec3> a(c.xi.size());
    pp_kernel_phantom_sp(c.xi, a, c.list, 0.3, 1e-6);
    out.emplace_back(v, std::move(a));
  });
  for (std::size_t p = 0; p < out.size(); ++p)
    for (std::size_t q = p + 1; q < out.size(); ++q)
      EXPECT_NE(std::memcmp(out[p].second.data(), out[q].second.data(),
                            out[p].second.size() * sizeof(Vec3)),
                0)
          << phantom_variant_name(out[p].first) << " vs " << phantom_variant_name(out[q].first);
}

}  // namespace
}  // namespace greem::pp
