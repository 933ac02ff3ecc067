#include "pp/kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define GREEM_X86_KERNELS 1
#include <immintrin.h>
#endif

// This translation unit holds the hot "Phantom-GRAPE" force loop and is
// compiled with aggressive vectorization flags (see src/CMakeLists.txt):
// the kernel is approximate by design (24-bit rsqrt), so value-changing
// optimizations are in-contract here and only here.
//
// Layout of this file: the scalar rsqrt, the basic (1i x 4j) kernel, the
// register-blocked AVX2 and AVX-512 intrinsic kernels (paper §II-A: four
// i-particles share every j-lane load -- the HPC-ACE code holds the same
// 4x4 tile in registers), and the runtime dispatch shim at the bottom.

namespace greem::pp {

double approx_rsqrt(double x) {
  // Seed: float bit trick (raw error ~3.4%) refined by one float Newton
  // step to ~0.2% -- the software analog of the paper's 8-bit HPC-ACE
  // frsqrta estimate...
  const auto xf = static_cast<float>(x);
  const auto i = std::bit_cast<std::uint32_t>(xf);
  float seed = std::bit_cast<float>(std::uint32_t{0x5f3759df} - (i >> 1));
  seed *= 1.5f - 0.5f * xf * seed * seed;
  const double y0 = static_cast<double>(seed);
  // ...then the paper's single third-order (Householder) step:
  // error ~ h0^3, i.e. ~24-bit accuracy from the 8-bit seed.
  const double h0 = 1.0 - x * y0 * y0;
  return y0 * (1.0 + h0 * (0.5 + h0 * 0.375));
}

namespace {

// The pre-blocking kernel: one target at a time, 4-wide j-lane loop the
// compiler keeps in SIMD registers.  Retained as the portable baseline of
// the dispatch table and as the i-tail handler of the blocked kernels.
void kernel_basic(std::span<const Vec3> xi, std::span<Vec3> acc,
                  const InteractionList& list, double rcut, double eps2) {
  const double two_over_rcut = 2.0 / rcut;
  const std::size_t nj = list.size();
  const double* jx = list.x.data();
  const double* jy = list.y.data();
  const double* jz = list.z.data();
  const double* jm = list.m.data();

  for (std::size_t i = 0; i < xi.size(); ++i) {
    const double pix = xi[i].x, piy = xi[i].y, piz = xi[i].z;
    double ax = 0, ay = 0, az = 0;
    for (std::size_t j = 0; j < nj; j += 4) {
      double fx[4], fy[4], fz[4];
      for (int l = 0; l < 4; ++l) {
        const double dx = jx[j + l] - pix;
        const double dy = jy[j + l] - piy;
        const double dz = jz[j + l] - piz;
        const double r2 = dx * dx + dy * dy + dz * dz + eps2;
        const double y0 = approx_rsqrt(r2);
        const double r = r2 * y0;
        // Branchless cutoff: clamp xi to the edge where g vanishes.
        double q = r * two_over_rcut;
        q = q < 2.0 ? q : 2.0;
        const double zeta = q > 1.0 ? q - 1.0 : 0.0;
        const double z2 = zeta * zeta;
        const double z6 = z2 * z2 * z2;
        const double poly =
            -8.0 / 5.0 +
            q * q * (8.0 / 5.0 + q * (-1.0 / 2.0 + q * (-12.0 / 35.0 + q * (3.0 / 20.0))));
        const double g =
            1.0 + q * q * q * poly - z6 * (3.0 / 35.0 + q * (18.0 / 35.0 + q * (1.0 / 5.0)));
        const double f = jm[j + l] * g * (y0 * y0 * y0);
        fx[l] = f * dx;
        fy[l] = f * dy;
        fz[l] = f * dz;
      }
      ax += (fx[0] + fx[1]) + (fx[2] + fx[3]);
      ay += (fy[0] + fy[1]) + (fy[2] + fy[3]);
      az += (fz[0] + fz[1]) + (fz[2] + fz[3]);
    }
    acc[i] += Vec3{ax, ay, az};
  }
}

#ifdef GREEM_X86_KERNELS

// ---------------------------------------------------------------- AVX2 --
// 4i x 4j tile in ymm registers.  rsqrt seed: cut r2 to float,
// _mm_rsqrt_ps (~12-bit), widen back, then the paper's third-order step in
// double: final error ~h^3 ~ 1e-10, inside the 24-bit contract.

__attribute__((target("avx2,fma")))
inline __m256d cutoff_force_avx2(__m256d r2, __m256d mj, __m256d two_over_rcut) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d y0 = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(r2)));
  const __m256d h0 = _mm256_fnmadd_pd(_mm256_mul_pd(r2, y0), y0, one);
  const __m256d y1 = _mm256_mul_pd(
      y0, _mm256_fmadd_pd(
              h0, _mm256_fmadd_pd(h0, _mm256_set1_pd(0.375), _mm256_set1_pd(0.5)), one));
  __m256d q = _mm256_mul_pd(_mm256_mul_pd(r2, y1), two_over_rcut);
  q = _mm256_min_pd(q, _mm256_set1_pd(2.0));
  const __m256d zeta = _mm256_max_pd(_mm256_sub_pd(q, one), _mm256_setzero_pd());
  const __m256d z2 = _mm256_mul_pd(zeta, zeta);
  const __m256d z6 = _mm256_mul_pd(_mm256_mul_pd(z2, z2), z2);
  const __m256d q2 = _mm256_mul_pd(q, q);
  __m256d poly = _mm256_fmadd_pd(q, _mm256_set1_pd(3.0 / 20.0), _mm256_set1_pd(-12.0 / 35.0));
  poly = _mm256_fmadd_pd(q, poly, _mm256_set1_pd(-0.5));
  poly = _mm256_fmadd_pd(q, poly, _mm256_set1_pd(8.0 / 5.0));
  poly = _mm256_fmadd_pd(q2, poly, _mm256_set1_pd(-8.0 / 5.0));
  __m256d zp = _mm256_fmadd_pd(q, _mm256_set1_pd(1.0 / 5.0), _mm256_set1_pd(18.0 / 35.0));
  zp = _mm256_fmadd_pd(q, zp, _mm256_set1_pd(3.0 / 35.0));
  __m256d g = _mm256_fmadd_pd(_mm256_mul_pd(q2, q), poly, one);
  g = _mm256_fnmadd_pd(z6, zp, g);
  return _mm256_mul_pd(_mm256_mul_pd(mj, g), _mm256_mul_pd(_mm256_mul_pd(y1, y1), y1));
}

__attribute__((target("avx2,fma")))
inline double hsum_avx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

__attribute__((target("avx2,fma")))
void kernel_blocked_avx2(std::span<const Vec3> xi, std::span<Vec3> acc,
                         const InteractionList& list, double rcut, double eps2) {
  const __m256d two_over_rcut = _mm256_set1_pd(2.0 / rcut);
  const __m256d veps2 = _mm256_set1_pd(eps2);
  const std::size_t nj = list.size();
  const double* jx = list.x.data();
  const double* jy = list.y.data();
  const double* jz = list.z.data();
  const double* jm = list.m.data();

  const std::size_t ni = xi.size();
  std::size_t i0 = 0;
  for (; i0 + 4 <= ni; i0 += 4) {
    const __m256d p0x = _mm256_set1_pd(xi[i0 + 0].x), p0y = _mm256_set1_pd(xi[i0 + 0].y),
                  p0z = _mm256_set1_pd(xi[i0 + 0].z);
    const __m256d p1x = _mm256_set1_pd(xi[i0 + 1].x), p1y = _mm256_set1_pd(xi[i0 + 1].y),
                  p1z = _mm256_set1_pd(xi[i0 + 1].z);
    const __m256d p2x = _mm256_set1_pd(xi[i0 + 2].x), p2y = _mm256_set1_pd(xi[i0 + 2].y),
                  p2z = _mm256_set1_pd(xi[i0 + 2].z);
    const __m256d p3x = _mm256_set1_pd(xi[i0 + 3].x), p3y = _mm256_set1_pd(xi[i0 + 3].y),
                  p3z = _mm256_set1_pd(xi[i0 + 3].z);
    __m256d a0x = _mm256_setzero_pd(), a0y = a0x, a0z = a0x;
    __m256d a1x = a0x, a1y = a0x, a1z = a0x;
    __m256d a2x = a0x, a2y = a0x, a2z = a0x;
    __m256d a3x = a0x, a3y = a0x, a3z = a0x;
    for (std::size_t j = 0; j < nj; j += 4) {
      const __m256d xj = _mm256_loadu_pd(jx + j);
      const __m256d yj = _mm256_loadu_pd(jy + j);
      const __m256d zj = _mm256_loadu_pd(jz + j);
      const __m256d mj = _mm256_loadu_pd(jm + j);
#define GREEM_AVX2_ONE_I(PX, PY, PZ, AX, AY, AZ)                       \
      {                                                                \
        const __m256d dx = _mm256_sub_pd(xj, PX);                      \
        const __m256d dy = _mm256_sub_pd(yj, PY);                      \
        const __m256d dz = _mm256_sub_pd(zj, PZ);                      \
        __m256d r2 = _mm256_fmadd_pd(dx, dx, veps2);                   \
        r2 = _mm256_fmadd_pd(dy, dy, r2);                              \
        r2 = _mm256_fmadd_pd(dz, dz, r2);                              \
        const __m256d f = cutoff_force_avx2(r2, mj, two_over_rcut);    \
        AX = _mm256_fmadd_pd(f, dx, AX);                               \
        AY = _mm256_fmadd_pd(f, dy, AY);                               \
        AZ = _mm256_fmadd_pd(f, dz, AZ);                               \
      }
      GREEM_AVX2_ONE_I(p0x, p0y, p0z, a0x, a0y, a0z)
      GREEM_AVX2_ONE_I(p1x, p1y, p1z, a1x, a1y, a1z)
      GREEM_AVX2_ONE_I(p2x, p2y, p2z, a2x, a2y, a2z)
      GREEM_AVX2_ONE_I(p3x, p3y, p3z, a3x, a3y, a3z)
#undef GREEM_AVX2_ONE_I
    }
    acc[i0 + 0] += Vec3{hsum_avx2(a0x), hsum_avx2(a0y), hsum_avx2(a0z)};
    acc[i0 + 1] += Vec3{hsum_avx2(a1x), hsum_avx2(a1y), hsum_avx2(a1z)};
    acc[i0 + 2] += Vec3{hsum_avx2(a2x), hsum_avx2(a2y), hsum_avx2(a2z)};
    acc[i0 + 3] += Vec3{hsum_avx2(a3x), hsum_avx2(a3y), hsum_avx2(a3z)};
  }
  if (i0 < ni) kernel_basic(xi.subspan(i0), acc.subspan(i0), list, rcut, eps2);
}

// -------------------------------------------------------------- AVX-512 --
// 4i x 8j tile in zmm registers, j unrolled by two chunks.  rsqrt seed:
// _mm512_rsqrt14_pd (14-bit hardware estimate -- the direct analog of the
// paper's frsqrta) + the third-order step: error ~2^-42.

__attribute__((target("avx512f")))
inline __m512d cutoff_force_avx512(__m512d r2, __m512d mj, __m512d two_over_rcut) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d y0 = _mm512_rsqrt14_pd(r2);
  const __m512d h0 = _mm512_fnmadd_pd(_mm512_mul_pd(r2, y0), y0, one);
  const __m512d y1 = _mm512_mul_pd(
      y0, _mm512_fmadd_pd(
              h0, _mm512_fmadd_pd(h0, _mm512_set1_pd(0.375), _mm512_set1_pd(0.5)), one));
  __m512d q = _mm512_mul_pd(_mm512_mul_pd(r2, y1), two_over_rcut);
  q = _mm512_min_pd(q, _mm512_set1_pd(2.0));
  const __m512d zeta = _mm512_max_pd(_mm512_sub_pd(q, one), _mm512_setzero_pd());
  const __m512d z2 = _mm512_mul_pd(zeta, zeta);
  const __m512d z6 = _mm512_mul_pd(_mm512_mul_pd(z2, z2), z2);
  const __m512d q2 = _mm512_mul_pd(q, q);
  __m512d poly = _mm512_fmadd_pd(q, _mm512_set1_pd(3.0 / 20.0), _mm512_set1_pd(-12.0 / 35.0));
  poly = _mm512_fmadd_pd(q, poly, _mm512_set1_pd(-0.5));
  poly = _mm512_fmadd_pd(q, poly, _mm512_set1_pd(8.0 / 5.0));
  poly = _mm512_fmadd_pd(q2, poly, _mm512_set1_pd(-8.0 / 5.0));
  __m512d zp = _mm512_fmadd_pd(q, _mm512_set1_pd(1.0 / 5.0), _mm512_set1_pd(18.0 / 35.0));
  zp = _mm512_fmadd_pd(q, zp, _mm512_set1_pd(3.0 / 35.0));
  __m512d g = _mm512_fmadd_pd(_mm512_mul_pd(q2, q), poly, one);
  g = _mm512_fnmadd_pd(z6, zp, g);
  return _mm512_mul_pd(_mm512_mul_pd(mj, g), _mm512_mul_pd(_mm512_mul_pd(y1, y1), y1));
}

__attribute__((target("avx512f")))
void kernel_blocked_avx512(std::span<const Vec3> xi, std::span<Vec3> acc,
                           const InteractionList& list, double rcut, double eps2) {
  const __m512d two_over_rcut = _mm512_set1_pd(2.0 / rcut);
  const __m512d veps2 = _mm512_set1_pd(eps2);
  const std::size_t nj = list.size();
  const double* jx = list.x.data();
  const double* jy = list.y.data();
  const double* jz = list.z.data();
  const double* jm = list.m.data();

  const std::size_t ni = xi.size();
  std::size_t i0 = 0;
  for (; i0 + 4 <= ni; i0 += 4) {
    const __m512d p0x = _mm512_set1_pd(xi[i0 + 0].x), p0y = _mm512_set1_pd(xi[i0 + 0].y),
                  p0z = _mm512_set1_pd(xi[i0 + 0].z);
    const __m512d p1x = _mm512_set1_pd(xi[i0 + 1].x), p1y = _mm512_set1_pd(xi[i0 + 1].y),
                  p1z = _mm512_set1_pd(xi[i0 + 1].z);
    const __m512d p2x = _mm512_set1_pd(xi[i0 + 2].x), p2y = _mm512_set1_pd(xi[i0 + 2].y),
                  p2z = _mm512_set1_pd(xi[i0 + 2].z);
    const __m512d p3x = _mm512_set1_pd(xi[i0 + 3].x), p3y = _mm512_set1_pd(xi[i0 + 3].y),
                  p3z = _mm512_set1_pd(xi[i0 + 3].z);
    __m512d a0x = _mm512_setzero_pd(), a0y = a0x, a0z = a0x;
    __m512d a1x = a0x, a1y = a0x, a1z = a0x;
    __m512d a2x = a0x, a2y = a0x, a2z = a0x;
    __m512d a3x = a0x, a3y = a0x, a3z = a0x;
#define GREEM_AVX512_ONE_I(PX, PY, PZ, AX, AY, AZ)                       \
      {                                                                  \
        const __m512d dx = _mm512_sub_pd(xj, PX);                        \
        const __m512d dy = _mm512_sub_pd(yj, PY);                        \
        const __m512d dz = _mm512_sub_pd(zj, PZ);                        \
        __m512d r2 = _mm512_fmadd_pd(dx, dx, veps2);                     \
        r2 = _mm512_fmadd_pd(dy, dy, r2);                                \
        r2 = _mm512_fmadd_pd(dz, dz, r2);                                \
        const __m512d f = cutoff_force_avx512(r2, mj, two_over_rcut);    \
        AX = _mm512_fmadd_pd(f, dx, AX);                                 \
        AY = _mm512_fmadd_pd(f, dy, AY);                                 \
        AZ = _mm512_fmadd_pd(f, dz, AZ);                                 \
      }
#define GREEM_AVX512_TILE(J)                                             \
      {                                                                  \
        const __m512d xj = _mm512_loadu_pd(jx + (J));                    \
        const __m512d yj = _mm512_loadu_pd(jy + (J));                    \
        const __m512d zj = _mm512_loadu_pd(jz + (J));                    \
        const __m512d mj = _mm512_loadu_pd(jm + (J));                    \
        GREEM_AVX512_ONE_I(p0x, p0y, p0z, a0x, a0y, a0z)                 \
        GREEM_AVX512_ONE_I(p1x, p1y, p1z, a1x, a1y, a1z)                 \
        GREEM_AVX512_ONE_I(p2x, p2y, p2z, a2x, a2y, a2z)                 \
        GREEM_AVX512_ONE_I(p3x, p3y, p3z, a3x, a3y, a3z)                 \
      }
    std::size_t j = 0;
    for (; j + 16 <= nj; j += 16) {  // two chunks in flight per iteration
      GREEM_AVX512_TILE(j)
      GREEM_AVX512_TILE(j + 8)
    }
    for (; j + 8 <= nj; j += 8) GREEM_AVX512_TILE(j)
    if (j < nj) {
      // pad4() guarantees a multiple of 4: one masked half-width chunk.
      const __mmask8 m4 = 0x0f;
      const __m512d xj = _mm512_maskz_loadu_pd(m4, jx + j);
      const __m512d yj = _mm512_maskz_loadu_pd(m4, jy + j);
      const __m512d zj = _mm512_maskz_loadu_pd(m4, jz + j);
      // Upper lanes: zero mass at zero distance would divide by eps2 only;
      // zero mass makes them force-neutral exactly as pad4 entries are.
      const __m512d mj = _mm512_maskz_loadu_pd(m4, jm + j);
      GREEM_AVX512_ONE_I(p0x, p0y, p0z, a0x, a0y, a0z)
      GREEM_AVX512_ONE_I(p1x, p1y, p1z, a1x, a1y, a1z)
      GREEM_AVX512_ONE_I(p2x, p2y, p2z, a2x, a2y, a2z)
      GREEM_AVX512_ONE_I(p3x, p3y, p3z, a3x, a3y, a3z)
    }
#undef GREEM_AVX512_TILE
#undef GREEM_AVX512_ONE_I
    acc[i0 + 0] += Vec3{_mm512_reduce_add_pd(a0x), _mm512_reduce_add_pd(a0y),
                        _mm512_reduce_add_pd(a0z)};
    acc[i0 + 1] += Vec3{_mm512_reduce_add_pd(a1x), _mm512_reduce_add_pd(a1y),
                        _mm512_reduce_add_pd(a1z)};
    acc[i0 + 2] += Vec3{_mm512_reduce_add_pd(a2x), _mm512_reduce_add_pd(a2y),
                        _mm512_reduce_add_pd(a2z)};
    acc[i0 + 3] += Vec3{_mm512_reduce_add_pd(a3x), _mm512_reduce_add_pd(a3y),
                        _mm512_reduce_add_pd(a3z)};
  }
  if (i0 < ni) kernel_basic(xi.subspan(i0), acc.subspan(i0), list, rcut, eps2);
}

#endif  // GREEM_X86_KERNELS

// ------------------------------------------------------------- dispatch --

PhantomVariant resolve(PhantomVariant v) {
  if (v == PhantomVariant::kAuto) {
#ifdef GREEM_X86_KERNELS
    if (__builtin_cpu_supports("avx512f")) return PhantomVariant::kBlockedAvx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return PhantomVariant::kBlockedAvx2;
#endif
    return PhantomVariant::kBasic;
  }
  return phantom_variant_available(v) ? v : resolve(PhantomVariant::kAuto);
}

PhantomVariant env_variant() {
  const char* env = std::getenv("GREEM_KERNEL");
  if (env == nullptr) return PhantomVariant::kAuto;
  for (const PhantomVariant v :
       {PhantomVariant::kAuto, PhantomVariant::kScalar, PhantomVariant::kBasic,
        PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512})
    if (std::strcmp(env, phantom_variant_name(v)) == 0) return v;
  return PhantomVariant::kAuto;
}

// Resolved once per process from GREEM_KERNEL; set_phantom_variant
// overrides it (benchmarking only, not synchronized with kernel calls).
PhantomVariant g_variant = resolve(env_variant());

}  // namespace

bool phantom_variant_available(PhantomVariant v) {
  switch (v) {
    case PhantomVariant::kAuto:
    case PhantomVariant::kScalar:
    case PhantomVariant::kBasic:
      return true;
    case PhantomVariant::kBlockedAvx2:
#ifdef GREEM_X86_KERNELS
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case PhantomVariant::kBlockedAvx512:
#ifdef GREEM_X86_KERNELS
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

const char* phantom_variant_name(PhantomVariant v) {
  switch (v) {
    case PhantomVariant::kAuto: return "auto";
    case PhantomVariant::kScalar: return "scalar";
    case PhantomVariant::kBasic: return "basic";
    case PhantomVariant::kBlockedAvx2: return "avx2";
    case PhantomVariant::kBlockedAvx512: return "avx512";
  }
  return "?";
}

PhantomVariant phantom_dispatch() { return g_variant; }

void set_phantom_variant(PhantomVariant v) { g_variant = resolve(v); }

void pp_kernel_phantom_variant(PhantomVariant v, std::span<const Vec3> xi,
                               std::span<Vec3> acc, const InteractionList& list,
                               double rcut, double eps2) {
  switch (resolve(v)) {
    case PhantomVariant::kScalar:
      pp_kernel_scalar(xi, acc, list, rcut, eps2);
      return;
    case PhantomVariant::kBasic:
      kernel_basic(xi, acc, list, rcut, eps2);
      return;
#ifdef GREEM_X86_KERNELS
    case PhantomVariant::kBlockedAvx2:
      kernel_blocked_avx2(xi, acc, list, rcut, eps2);
      return;
    case PhantomVariant::kBlockedAvx512:
      kernel_blocked_avx512(xi, acc, list, rcut, eps2);
      return;
#endif
    default:
      kernel_basic(xi, acc, list, rcut, eps2);
      return;
  }
}

void pp_kernel_phantom(std::span<const Vec3> xi, std::span<Vec3> acc,
                       const InteractionList& list, double rcut, double eps2) {
  pp_kernel_phantom_variant(g_variant, xi, acc, list, rcut, eps2);
}


void pp_kernel_phantom_sp(std::span<const Vec3> xi, std::span<Vec3> acc,
                          const InteractionList& list, double rcut, double eps2) {
  if (xi.empty()) return;
  const std::size_t nj = list.size();
  // Shift to a group-local origin so float coordinates keep ~7 digits of
  // *relative* position; pair separations are differences of nearby values.
  const Vec3 origin = xi[0];
  std::vector<float> jx(nj), jy(nj), jz(nj), jm(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    jx[j] = static_cast<float>(list.x[j] - origin.x);
    jy[j] = static_cast<float>(list.y[j] - origin.y);
    jz[j] = static_cast<float>(list.z[j] - origin.z);
    jm[j] = static_cast<float>(list.m[j]);
  }
  const float two_over_rcut = static_cast<float>(2.0 / rcut);
  const float feps2 = static_cast<float>(eps2);

  for (std::size_t i = 0; i < xi.size(); ++i) {
    const float pix = static_cast<float>(xi[i].x - origin.x);
    const float piy = static_cast<float>(xi[i].y - origin.y);
    const float piz = static_cast<float>(xi[i].z - origin.z);
    float ax = 0, ay = 0, az = 0;
    for (std::size_t j = 0; j < nj; j += 4) {
      float fx[4], fy[4], fz[4];
      for (int l = 0; l < 4; ++l) {
        const float dx = jx[j + l] - pix;
        const float dy = jy[j + l] - piy;
        const float dz = jz[j + l] - piz;
        const float r2 = dx * dx + dy * dy + dz * dz + feps2;
        // Bit-trick seed + one Newton + one third-order step (float).
        const auto bits = std::bit_cast<std::uint32_t>(r2);
        float y0 = std::bit_cast<float>(std::uint32_t{0x5f3759df} - (bits >> 1));
        y0 *= 1.5f - 0.5f * r2 * y0 * y0;
        const float h0 = 1.0f - r2 * y0 * y0;
        const float y1 = y0 * (1.0f + h0 * (0.5f + h0 * 0.375f));
        const float r = r2 * y1;
        float q = r * two_over_rcut;
        q = q < 2.0f ? q : 2.0f;
        const float zeta = q > 1.0f ? q - 1.0f : 0.0f;
        const float z2 = zeta * zeta;
        const float z6 = z2 * z2 * z2;
        const float poly =
            -1.6f + q * q * (1.6f + q * (-0.5f + q * (-12.0f / 35.0f + q * 0.15f)));
        const float g = 1.0f + q * q * q * poly -
                        z6 * (3.0f / 35.0f + q * (18.0f / 35.0f + q * 0.2f));
        const float f = jm[j + l] * g * (y1 * y1 * y1);
        fx[l] = f * dx;
        fy[l] = f * dy;
        fz[l] = f * dz;
      }
      ax += (fx[0] + fx[1]) + (fx[2] + fx[3]);
      ay += (fy[0] + fy[1]) + (fy[2] + fy[3]);
      az += (fz[0] + fz[1]) + (fz[2] + fz[3]);
    }
    acc[i] += Vec3{static_cast<double>(ax), static_cast<double>(ay),
                   static_cast<double>(az)};
  }
}

}  // namespace greem::pp
