// Reproduction of §II-A: the O(N^2) kernel benchmark used to quote the
// force-loop efficiency.  The paper's loop reaches 11.65 Gflops of a
// 12 Gflops theoretical bound (97%) on one SPARC64 VIIIfx core, counting
// 51 floating-point operations per pairwise interaction.  We report the
// same flops accounting for the scalar reference, the batched phantom
// kernel, and the plain Newton kernel, plus the phantom/scalar speedup
// (the quantity the Phantom-GRAPE port buys).

// Besides the google-benchmark registrations, main() times every kernel
// variant the CPU supports and records the rates and speedups in
// BENCH_kernel.json (machine-readable counterpart of the table above).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "pp/kernels.hpp"
#include "telemetry/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace greem;

struct Workload {
  std::vector<Vec3> xi;
  std::vector<Vec3> acc;
  pp::InteractionList list;
  double rcut = 0.3;
  double eps2 = 1e-8;
};

Workload make_workload(std::size_t ni, std::size_t nj) {
  Rng rng(1234);
  Workload w;
  w.xi.resize(ni);
  w.acc.resize(ni);
  for (auto& p : w.xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (std::size_t j = 0; j < nj; ++j)
    w.list.add({rng.uniform(), rng.uniform(), rng.uniform()}, 1.0 / static_cast<double>(nj));
  w.list.pad4();
  return w;
}

void report_flops(benchmark::State& state, std::size_t ni, std::size_t nj, int flops) {
  const double interactions = static_cast<double>(state.iterations()) *
                              static_cast<double>(ni) * static_cast<double>(nj);
  state.counters["interactions/s"] =
      benchmark::Counter(interactions, benchmark::Counter::kIsRate);
  state.counters["Gflops"] = benchmark::Counter(interactions * flops * 1e-9,
                                                benchmark::Counter::kIsRate);
}

void BM_PhantomKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;  // ~ the paper's <Nj> ~ 2000 list length
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_phantom(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_PhantomKernel)->Arg(64)->Arg(128)->Arg(512);

void BM_PhantomVariant(benchmark::State& state) {
  // One specific dispatch variant (index into kVariants below).
  const auto v = static_cast<pp::PhantomVariant>(state.range(0));
  if (!pp::phantom_variant_available(v)) {
    state.SkipWithError("variant not available on this CPU");
    return;
  }
  const std::size_t ni = 512, nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_phantom_variant(v, w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  state.SetLabel(pp::phantom_variant_name(v));
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_PhantomVariant)
    ->Arg(static_cast<int>(pp::PhantomVariant::kBasic))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx2))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx512));

void BM_PhantomKernelSP(benchmark::State& state) {
  // The mixed-precision kernel the engine runs (float pair terms, double
  // sums) with one variant's tile: avx512 4i x 16j, avx2 4i x 8j, basic
  // the portable loop.
  const auto v = static_cast<pp::PhantomVariant>(state.range(0));
  if (!pp::phantom_variant_available(v)) {
    state.SkipWithError("variant not available on this CPU");
    return;
  }
  const std::size_t ni = 512, nj = 2048;
  auto w = make_workload(ni, nj);
  const pp::PhantomVariant saved = pp::phantom_dispatch();
  pp::set_phantom_variant(v);
  for (auto _ : state) {
    pp::pp_kernel_phantom_sp(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  pp::set_phantom_variant(saved);
  state.SetLabel(pp::phantom_variant_name(v));
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_PhantomKernelSP)
    ->Arg(static_cast<int>(pp::PhantomVariant::kBasic))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx2))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx512));

void BM_ScalarKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_scalar(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_ScalarKernel)->Arg(64)->Arg(128);

void BM_NewtonKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_newton(w.xi, w.acc, w.list, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerNewtonInteraction);
}
BENCHMARK(BM_NewtonKernel)->Arg(128);

/// The paper's headline kernel number: a pure O(N^2) self-interaction
/// benchmark (every particle against every particle).
void BM_NSquaredKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto w = make_workload(n, n);
  for (auto _ : state) {
    pp::pp_kernel_phantom(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, n, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_NSquaredKernel)->Arg(1024)->Arg(4096);

/// Best-of-3 interaction rate of one variant on a fixed workload: the
/// double-precision kernel, or with `mixed` the mixed-precision one.
double measure_rate(pp::PhantomVariant v, Workload& w, bool mixed = false) {
  using clock = std::chrono::steady_clock;
  const double n_inter = static_cast<double>(w.xi.size()) * static_cast<double>(w.list.size());
  const pp::PhantomVariant saved = pp::phantom_dispatch();
  if (mixed) pp::set_phantom_variant(v);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t iters = 0;
    const auto t0 = clock::now();
    double elapsed = 0;
    while (elapsed < 0.2) {
      if (mixed)
        pp::pp_kernel_phantom_sp(w.xi, w.acc, w.list, w.rcut, w.eps2);
      else
        pp::pp_kernel_phantom_variant(v, w.xi, w.acc, w.list, w.rcut, w.eps2);
      benchmark::DoNotOptimize(w.acc.data());
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    }
    best = std::max(best, static_cast<double>(iters) * n_inter / elapsed);
  }
  pp::set_phantom_variant(saved);
  return best;
}

void write_kernel_json(const char* path) {
  constexpr std::size_t ni = 512, nj = 2048;
  auto w = make_workload(ni, nj);

  constexpr pp::PhantomVariant kVariants[] = {
      pp::PhantomVariant::kScalar, pp::PhantomVariant::kBasic, pp::PhantomVariant::kBlockedAvx2,
      pp::PhantomVariant::kBlockedAvx512};
  double rate[std::size(kVariants)] = {}, sp_rate[std::size(kVariants)] = {};
  for (std::size_t k = 0; k < std::size(kVariants); ++k)
    if (pp::phantom_variant_available(kVariants[k])) {
      rate[k] = measure_rate(kVariants[k], w);
      sp_rate[k] = measure_rate(kVariants[k], w, /*mixed=*/true);
    }
  const double scalar = rate[0], basic = rate[1];
  const double dispatched = measure_rate(pp::phantom_dispatch(), w);

  std::ofstream os(path);
  if (!os) return;
  telemetry::JsonWriter jw(os);
  jw.begin_object();
  telemetry::write_meta(
      jw, telemetry::RunMeta::collect("kernel",
                                      pp::phantom_variant_name(pp::phantom_dispatch())));
  jw.field("ni", ni);
  jw.field("nj", w.list.size());
  jw.field("flops_per_interaction", pp::kFlopsPerInteraction);
  jw.field("dispatch", pp::phantom_variant_name(pp::phantom_dispatch()));
  jw.field("dispatch_interactions_per_s", dispatched);
  jw.field("dispatch_speedup_vs_basic", basic > 0 ? dispatched / basic : 0.0);
  jw.key("variants").begin_array();
  for (std::size_t k = 0; k < std::size(kVariants); ++k) {
    const pp::PhantomVariant v = kVariants[k];
    jw.begin_object();
    jw.field("name", pp::phantom_variant_name(v));
    jw.field("available", rate[k] > 0);
    jw.field("interactions_per_s", rate[k]);
    jw.field("gflops", rate[k] * pp::kFlopsPerInteraction * 1e-9);
    jw.field("mixed_interactions_per_s", sp_rate[k]);
    jw.field("mixed_gflops", sp_rate[k] * pp::kFlopsPerInteraction * 1e-9);
    jw.field("speedup_vs_scalar", scalar > 0 ? rate[k] / scalar : 0.0);
    jw.field("speedup_vs_basic", basic > 0 ? rate[k] / basic : 0.0);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  os << "\n";
  std::printf("wrote %s (dispatch=%s, %.3g M inter/s, %.2fx vs basic)\n", path,
              pp::phantom_variant_name(pp::phantom_dispatch()), dispatched * 1e-6,
              basic > 0 ? dispatched / basic : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  write_kernel_json("BENCH_kernel.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
