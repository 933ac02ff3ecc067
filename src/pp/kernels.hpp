#pragma once
// Particle-particle force kernels.
//
// This is the repository's port of the paper's Phantom-GRAPE force loop:
// the hot kernel evaluates accelerations from an interaction list (tree
// nodes flattened to pseudo-particles plus real particles) onto a group of
// target particles, applying the gP3M cutoff (eq. 3) and an approximate
// reciprocal square root refined to ~24-bit accuracy by the paper's
// third-order iteration  y1 = y0 (1 + h/2 + 3 h^2 / 8),  h = 1 - x y0^2.
//
// Flop accounting follows the paper: 51 floating-point operations per
// pairwise interaction (§II-A), used by the benchmarks to convert
// interaction counts into a flop rate.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace greem::pp {

/// Operation count per pairwise interaction used for flops accounting
/// (the paper's convention for the cutoff kernel).
inline constexpr int kFlopsPerInteraction = 51;

/// Operation count used by the classic tree codes for a plain Newtonian
/// interaction (Warren & Salmon convention); used by baseline benches.
inline constexpr int kFlopsPerNewtonInteraction = 38;

/// Fast reciprocal square root: float bit-trick seed (~9 bits) followed by
/// one third-order Householder step, as the paper does from the 8-bit
/// HPC-ACE estimate (final accuracy ~24 bits).
double approx_rsqrt(double x);

/// Sources of an interaction list, stored SoA so the batched kernel streams
/// them.  pad4() appends far-away zero-mass entries until the length is a
/// multiple of 4 (padding is force-neutral).
struct InteractionList {
  std::vector<double> x, y, z, m;

  std::size_t size() const { return x.size(); }
  void clear();
  void add(const Vec3& pos, double mass);
  void reserve(std::size_t n);
  void pad4();
};

/// Scalar reference kernel with exact arithmetic (1/sqrt), gP3M cutoff.
/// Adds accelerations of targets `xi` into `acc`.  Requires eps2 > 0 if a
/// target coincides with a source (self-interactions contribute zero force).
void pp_kernel_scalar(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double rcut, double eps2);

/// Optimized batched kernel ("phantom") in double precision: approximate
/// rsqrt, branchless cutoff clamp, register-blocked SIMD loop.  Same
/// contract as pp_kernel_scalar; `list` must be pad4()-ed.  The engine
/// runs pp_kernel_phantom_sp below instead; this kernel remains only for
/// bench_kernel's double legs and perfbench's pp.kernel_s replay, and goes
/// once that replay times the mixed-precision kernel.
///
/// This is a runtime-dispatched shim: it routes to the fastest
/// implementation the CPU supports (see PhantomVariant), overridable with
/// the GREEM_KERNEL environment variable (read once per process) or
/// set_phantom_variant().  Every variant stays within the documented
/// ~24-bit rsqrt tolerance of pp_kernel_scalar.
void pp_kernel_phantom(std::span<const Vec3> xi, std::span<Vec3> acc,
                       const InteractionList& list, double rcut, double eps2);

/// Implementations selectable for the phantom kernel.
///   kAuto          -- fastest available (avx512 > avx2 > basic)
///   kScalar        -- exact pp_kernel_scalar (for A/B benchmarking)
///   kBasic         -- 1i x 4j lane loop, compiler-vectorized (the
///                     pre-blocking kernel; kept as the portable baseline)
///   kBlockedAvx2   -- 4i x 4j AVX2+FMA intrinsics, rsqrt seed from
///                     _mm_rsqrt_ps + the paper's third-order step
///   kBlockedAvx512 -- 4i x 8j AVX-512 intrinsics, _mm512_rsqrt14_pd
///                     seed (the software analog of HPC-ACE frsqrta)
///                     + the paper's third-order step
enum class PhantomVariant { kAuto, kScalar, kBasic, kBlockedAvx2, kBlockedAvx512 };

/// True if `v` can execute on this CPU/build.
bool phantom_variant_available(PhantomVariant v);

/// Name used by GREEM_KERNEL and the bench JSON ("auto", "scalar",
/// "basic", "avx2", "avx512").
const char* phantom_variant_name(PhantomVariant v);

/// The variant pp_kernel_phantom currently dispatches to, with kAuto and
/// unavailable requests resolved to a concrete runnable variant.
PhantomVariant phantom_dispatch();

/// Programmatic override (same effect as GREEM_KERNEL; benches use this).
/// Not thread-safe against concurrent pp_kernel_phantom calls.
void set_phantom_variant(PhantomVariant v);

/// Run one specific variant (resolved like phantom_dispatch if
/// unavailable).  pp_kernel_phantom is equivalent to calling this with
/// phantom_dispatch().
void pp_kernel_phantom_variant(PhantomVariant v, std::span<const Vec3> xi,
                               std::span<Vec3> acc, const InteractionList& list,
                               double rcut, double eps2);

/// Mixed-precision phantom kernel, the arithmetic of the x86 Phantom-GRAPE
/// builds (the K-computer port runs double) and the one the engine's
/// tree::KernelKind::kPhantom runs.  Same contract as pp_kernel_scalar;
/// `list` needs no padding.
///
/// Sources are converted to float once per call, as offsets from the
/// midpoint of the targets' bounding box (an origin independent of target
/// order), into per-thread staging buffers padded to 16 with far zero-mass
/// entries, so a warm call allocates nothing.  Pair terms are float; each
/// lane's float partial sum over at most 512 sources is added into a double
/// sum per target.  Sources beyond rcut contribute exactly zero.  A
/// target's result is bitwise independent of its position in `xi`.
///
/// Follows phantom_dispatch() (GREEM_KERNEL / set_phantom_variant):
///   avx512 -- 4i x 16j float tile, _mm512_rsqrt14_ps + one Newton step
///   avx2   -- 4i x 8j AVX2+FMA float tile, _mm256_rsqrt_ps + one Newton step
///   basic  -- portable 16-lane float loop, bit-trick seed + Newton + the
///             paper's third-order step
///   scalar -- pp_kernel_scalar itself (exact, double)
/// The ni % 4 tail of the tiles repeats a target and drops the extra
/// results.  Per-target error against pp_kernel_scalar: ~3e-7 median and
/// ~1e-5 worst for targets with many sources inside the softening length
/// (pp_test).
void pp_kernel_phantom_sp(std::span<const Vec3> xi, std::span<Vec3> acc,
                          const InteractionList& list, double rcut, double eps2);

/// Plain Newtonian kernel (no cutoff) for the pure-tree / direct baselines.
void pp_kernel_newton(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double eps2);

/// A tree node acting through monopole + trace-free quadrupole (the
/// multipole order of the classic pure-tree Gordon Bell codes).
struct QuadSource {
  Vec3 com;
  double mass = 0;
  std::array<double, 6> quad{};  ///< xx,xy,xz,yy,yz,zz about com
};

/// Monopole + quadrupole accelerations from accepted nodes:
///   a = -M r/|r|^3 + Q.r/|r|^5 - (5/2)(r.Q.r) r/|r|^7,  r = x_i - com.
void pp_kernel_quadrupole(std::span<const Vec3> xi, std::span<Vec3> acc,
                          std::span<const QuadSource> nodes, double eps2);

/// Pair potential counterparts (used by energy diagnostics; not hot paths).
/// Adds -G m h(xi)/r per source into `pot`.
void pp_potential_scalar(std::span<const Vec3> xi, std::span<double> pot,
                         const InteractionList& list, double rcut, double eps2);

}  // namespace greem::pp
