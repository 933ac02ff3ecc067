// perfbench: the repository benchmark program.
//
// One invocation runs one workload through core::ParallelSimulation in a
// single process and prints, as the last line of stdout, one JSON object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// --trace 0 measures the end-to-end metrics with no instrumentation at all:
// seconds per step (barrier to barrier), set-up seconds (median of
// kSetupRepeats set-ups), peak RSS and the force error against an Ewald
// oracle.  --trace 1 runs the same workload with spans around the program's
// own calls into the library (constructor, each step()), ledger and pool
// deltas around step(), and then replays one cycle of every layer on each
// rank's final state through that layer's public functions, timing each
// call from outside the library.  Replay results are discarded.
//
// Every run checks its output: particle count and total mass are conserved,
// and acc_s + acc_l after the last step must match the Ewald sum within the
// workload's absolute error budget.  A failed check marks every step of the
// run failed and makes the process exit non-zero.
//
// Before the result line the program prints a "meta" line (build, kernel
// variant, threads) and a "detail" line carrying each metric's clock,
// sample count and n/a status, the final-state hash and the check figures;
// perfbench/diff.py reads the detail lines.  perfbench/README.md lists the
// workloads and which metric each layer should move.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_sim.hpp"
#include "core/particle.hpp"
#include "domain/exchange.hpp"
#include "domain/sampling.hpp"
#include "ewald/ewald.hpp"
#include "fft/slab_fft.hpp"
#include "parx/runtime.hpp"
#include "pm/green.hpp"
#include "pm/mesh.hpp"
#include "pm/parallel_pm.hpp"
#include "pp/kernels.hpp"
#include "svc/service.hpp"
#include "telemetry/json.hpp"
#include "tree/ghost.hpp"
#include "tree/octree.hpp"
#include "tree/traversal.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace greem;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool clustered;  ///< clustered_particles(n, 1, 4, 0.7, 0.03) or uniform
  std::size_t n;
  std::size_t tiny_n;
  std::array<int, 3> dims;
  std::size_t pool_threads;
  std::size_t n_mesh;
  std::size_t tiny_mesh;
  bool overlap;
  /// Step count = --seconds / nominal_step_s (at least kMinSteps): fixed by
  /// the arguments, so the final state depends on the seed alone.
  double nominal_step_s;
  /// Absolute force-error budget (relative error of acc_s + acc_l vs Ewald):
  /// p90 about 3x its median over 30 seeds at HEAD; rms, which one target
  /// with a nearly cancelling force can lift several-fold, 4-10x.
  double max_rms, max_p90;
  double tiny_max_rms, tiny_max_p90;
  /// Ewald targets: as many as the O(targets * N) oracle affords, so the
  /// error quantiles hold steady between seeds.  The clustered ICs give a
  /// two-humped error distribution (clump targets ~6e-3, background ~4e-4)
  /// whose median lies in the sparse flank of the clump hump, so p50 needs
  /// far more targets there than p90 does: 512 gave IQR/median 0.26 over
  /// ten seeds on hybrid_1rank.
  std::size_t check_targets;
};

constexpr Workload kWorkloads[] = {
    // PP-bound clustered reference point; load-balance v2 weighting engages.
    {"clustered_1m", true, 1000000, 16384, {2, 2, 1}, 1, 128, 16, false, 3.0,
     2e-2, 1e-2, 0.1, 0.2, 1024},
    // PM-bound uniform run on the overlapped (nonblocking) PM/PP path.
    {"uniform_pm", false, 1u << 17, 8192, {2, 2, 1}, 1, 128, 16, true, 0.32,
     0.2, 0.18, 0.25, 0.4, 1024},
    // One rank, four pool threads: the only workload where TaskPool works.
    {"hybrid_1rank", true, 1u << 19, 16384, {1, 1, 1}, 4, 64, 16, false, 2.5,
     4e-2, 3.5e-2, 0.1, 0.2, 4096},
};

/// Set-ups per run; setup_s is their median.  Each 128^3 set-up costs ~10 s
/// on 4 cores (mostly the Green table), so a third would make set-up three
/// quarters of every run of the two 128^3 workloads.
constexpr int kSetupRepeats = 2;
constexpr int kMinSteps = 3;  ///< a median that one slow step cannot move
constexpr int kMinTracedSteps = 4;
constexpr double kDt = 1e-3;
constexpr std::size_t kTinyCheckTargets = 256;
constexpr std::size_t kKernelGroups = 256;  ///< PP replay: sampled groups per rank
constexpr double kFlopsPerInteraction = 51.0;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

core::ParallelSimConfig make_config(const Workload& w, bool tiny) {
  core::ParallelSimConfig c;
  c.dims = w.dims;
  c.pm.n_mesh = tiny ? w.tiny_mesh : w.n_mesh;
  c.pm.conversion.method = pm::MeshConversion::kRelay;
  c.pm.conversion.n_groups = 2;
  c.theta = 0.5;
  c.ncrit = 100;
  c.eps = 1e-3;
  c.cost_metric = core::CostMetric::kInteractions;
  c.pool_threads = w.pool_threads;
  c.overlap = w.overlap;
  return c;
}

/// Clump centres of the clustered workloads: the four centres
/// clustered_particles draws for seed kStructureSeed, held fixed for every
/// run seed.  With the centres drawn per seed, where the clumps land against
/// the domain cuts and each other moved step_s by +-15% between seeds (IQR
/// 27% of the median over five seeds), which no usable bound absorbs.
constexpr std::uint64_t kStructureSeed = 1;
constexpr int kClusters = 4;
constexpr double kClusterFraction = 0.7;
constexpr double kClusterScale = 0.03;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 0x9E3779B97F4A7C15ull + k * 0xBF58476D1CE4E5B9ull + 1;
}

/// The workload's particles for one run seed.  Clustered: the
/// clustered_particles recipe (70% of the mass in 4 Plummer clumps of scale
/// 0.03, the rest uniform) with fixed clump centres and clump/background
/// counts; the seed draws every particle.  Uniform: random_uniform_particles.
std::vector<core::Particle> make_ic(const Workload& w, std::size_t n, std::uint64_t seed) {
  if (!w.clustered) return core::random_uniform_particles(n, 1.0, seed);
  Rng centres(kStructureSeed, 3);  // the draw order clustered_particles uses
  std::vector<core::Particle> out;
  out.reserve(n);
  const auto per_clump = static_cast<std::size_t>(kClusterFraction * static_cast<double>(n)) /
                         kClusters;
  for (int k = 0; k < kClusters; ++k) {
    const Vec3 c{centres.uniform(), centres.uniform(), centres.uniform()};
    auto clump = core::plummer_particles(per_clump, 1.0, c, kClusterScale,
                                         derive_seed(seed, static_cast<std::uint64_t>(k)));
    out.insert(out.end(), clump.begin(), clump.end());
  }
  auto background = core::random_uniform_particles(n - out.size(), 1.0, derive_seed(seed, 99));
  out.insert(out.end(), background.begin(), background.end());
  const double m = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].mass = m;
    out[i].id = i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Return freed heap to the OS and restart the kernel's peak-RSS mark
/// (VmHWM), so peak_rss_mb() covers only what runs after this call.  False
/// when the mark cannot be reset (then the peak covers the whole process).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  os.flush();
  return static_cast<bool>(os);
}

/// Peak resident set in MiB: VmHWM, falling back to ru_maxrss.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  const std::string bt = PERFBENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel";
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written at exit.  Each record carries the metric
// name it feeds, start/end on the steady clock relative to the run start,
// the rank, its parent span and the run id.  Self time is the duration
// minus the union of the children's intervals.

struct SpanRecord {
  std::string name;
  double start_s = 0, end_s = 0;
  int rank = 0;
  std::int64_t id = 0, parent = 0;
};

class Tracer {
 public:
  Tracer(bool on, std::string run_id) : on_(on), run_id_(std::move(run_id)), t0_(now_s()) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, int rank) : t_(t && t->on_ ? t : nullptr) {
      if (!t_) return;
      rec_.name = name;
      rec_.rank = rank;
      rec_.id = t_->next_id_.fetch_add(1);
      rec_.parent = stack().empty() ? 0 : stack().back();
      stack().push_back(rec_.id);
      rec_.start_s = now_s() - t_->t0_;
    }
    ~Scope() {
      if (!t_) return;
      rec_.end_s = now_s() - t_->t0_;
      stack().pop_back();
      std::lock_guard lock(t_->mu_);
      t_->spans_.push_back(std::move(rec_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static std::vector<std::int64_t>& stack() {
      thread_local std::vector<std::int64_t> s;
      return s;
    }
    Tracer* t_;
    SpanRecord rec_;
  };

  /// Summed self seconds per span name, over every rank.
  std::map<std::string, double> self_seconds() const {
    std::lock_guard lock(mu_);
    std::map<std::int64_t, std::vector<const SpanRecord*>> children;
    for (const auto& s : spans_) children[s.parent].push_back(&s);
    std::map<std::string, double> out;
    for (const auto& s : spans_) {
      std::vector<std::pair<double, double>> iv;
      for (const SpanRecord* c : children[s.id]) iv.emplace_back(c->start_s, c->end_s);
      std::sort(iv.begin(), iv.end());
      double covered = 0, lo = 0, hi = -1;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += std::max(0.0, hi - lo);
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += std::max(0.0, hi - lo);
      out[s.name] += (s.end_s - s.start_s) - covered;
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::ofstream os(path);
    if (!os) return false;
    std::lock_guard lock(mu_);
    telemetry::JsonWriter jw(os, false);
    jw.begin_object().field("run_id", run_id_).key("spans").begin_array();
    for (const auto& s : spans_) {
      jw.begin_object().field("name", s.name).field_exact("start_s", s.start_s);
      jw.field_exact("end_s", s.end_s).field("rank", s.rank).field("id", s.id);
      jw.field("parent", s.parent).field("run", run_id_).end_object();
    }
    jw.end_array().end_object();
    os << "\n";
    return static_cast<bool>(os);
  }

 private:
  bool on_;
  std::string run_id_;
  double t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::int64_t> next_id_{1};
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  std::string clock;  ///< "wall", "count", or "ratio" (of counts or of wall times)
  double value = 0;
  std::size_t samples = 1;
  bool na = false;          ///< layer bypassed on this workload; value reads 0
  std::optional<double> base;  ///< denominator of a ratio, when it has one
};

class Metrics {
 public:
  Metric& add(std::string name, std::string unit, std::string clock, double value,
              std::size_t samples = 1) {
    Metric m;
    m.name = std::move(name);
    m.unit = std::move(unit);
    m.clock = std::move(clock);
    m.value = value;
    m.samples = samples;
    v_.push_back(std::move(m));
    return v_.back();
  }
  void na(std::string name, std::string unit, std::string clock) {
    add(std::move(name), std::move(unit), std::move(clock), 0.0, 0).na = true;
  }
  const std::vector<Metric>& all() const { return v_; }

 private:
  std::vector<Metric> v_;
};

// ---------------------------------------------------------------------------
// Correctness gate: Ewald oracle over all N sources for a seeded target
// subsample, plus count and mass conservation.

struct Check {
  bool ok = false;
  std::string why;
  std::size_t targets = 0;
  // Statistics of the per-target relative error |a - a_ref| / |a_ref|.
  double err_rms = 0, err_p50 = 0, err_p90 = 0, err_max = 0;
  double seconds = 0;
};

/// Morton (Z-order) key of a position in the unit cube on a 1024^3 grid.
std::uint64_t morton_key(const Vec3& p) {
  auto spread = [](double x) {
    auto v = static_cast<std::uint64_t>(std::clamp(x - std::floor(x), 0.0, 1.0) * 1023.0);
    v = (v | (v << 16)) & 0x030000FF;
    v = (v | (v << 8)) & 0x0300F00F;
    v = (v | (v << 4)) & 0x030C30C3;
    v = (v | (v << 2)) & 0x09249249;
    return v;
  };
  return spread(p.x) | (spread(p.y) << 1) | (spread(p.z) << 2);
}

/// The oracle's pair force: the periodic correction (Ewald minus min-image
/// Newton) tabulated from ewald::Ewald's exact sums on the octant grid, with
/// the node placement, odd-symmetry fold and trilinear interpolation that
/// Ewald::pair_acceleration uses with table_n = kTableN, plus the
/// Plummer-softened min-image Newton term, as Ewald::accelerations adds it.
/// One inlined loop with one square root per pair runs about 3x faster
/// than pair_acceleration plus a softening swap, which buys targets.
class EwaldOracle {
 public:
  static constexpr std::size_t kTableN = 48;

  explicit EwaldOracle(double eps2)
      : eps2_(eps2), table_((kTableN + 1) * (kTableN + 1) * (kTableN + 1)) {
    constexpr std::size_t n = kTableN;
    const ewald::Ewald ew;  // exact sums
    const double half = 0.5 * (1.0 - 1e-12);  // min_image(0.5) would wrap
    auto node = [&](std::size_t i) {
      return std::min(0.5 * static_cast<double>(i) / static_cast<double>(n), half);
    };
    parallel_for_dynamic(0, n + 1, 1, [&](std::size_t lo, std::size_t hi, unsigned) {
      for (std::size_t iz = lo; iz < hi; ++iz)
        for (std::size_t iy = 0; iy <= n; ++iy)
          for (std::size_t ix = 0; ix <= n; ++ix) {
            const Vec3 x{node(ix), node(iy), node(iz)};
            Vec3 c = ew.pair_acceleration_exact(x);
            const double r2 = x.norm2();
            if (r2 > 1e-24) c += x / (r2 * std::sqrt(r2));
            table_[(iz * (n + 1) + iy) * (n + 1) + ix] = c;
          }
    });
  }

  /// Acceleration at displacement dx = x_field - x_source from a unit source.
  Vec3 pair(const Vec3& dx) const {
    constexpr std::size_t n = kTableN;
    const Vec3 x{min_image(dx.x), min_image(dx.y), min_image(dx.z)};
    const double fx = std::min(std::abs(x.x), 0.5) * 2.0 * static_cast<double>(n);
    const double fy = std::min(std::abs(x.y), 0.5) * 2.0 * static_cast<double>(n);
    const double fz = std::min(std::abs(x.z), 0.5) * 2.0 * static_cast<double>(n);
    const auto ix = std::min(static_cast<std::size_t>(fx), n - 1);
    const auto iy = std::min(static_cast<std::size_t>(fy), n - 1);
    const auto iz = std::min(static_cast<std::size_t>(fz), n - 1);
    const double tx = fx - static_cast<double>(ix);
    const double ty = fy - static_cast<double>(iy);
    const double tz = fz - static_cast<double>(iz);
    const Vec3* t = &table_[(iz * (n + 1) + iy) * (n + 1) + ix];
    constexpr std::size_t sy = n + 1, sz = (n + 1) * (n + 1);
    Vec3 c = t[0] * ((1 - tx) * (1 - ty) * (1 - tz)) + t[1] * (tx * (1 - ty) * (1 - tz)) +
             t[sy] * ((1 - tx) * ty * (1 - tz)) + t[sy + 1] * (tx * ty * (1 - tz)) +
             t[sz] * ((1 - tx) * (1 - ty) * tz) + t[sz + 1] * (tx * (1 - ty) * tz) +
             t[sz + sy] * ((1 - tx) * ty * tz) + t[sz + sy + 1] * (tx * ty * tz);
    if (x.x < 0) c.x = -c.x;
    if (x.y < 0) c.y = -c.y;
    if (x.z < 0) c.z = -c.z;
    const double s2 = x.norm2() + eps2_;
    if (s2 > 1e-24) c -= x / (s2 * std::sqrt(s2));
    return c;
  }

 private:
  double eps2_;
  std::vector<Vec3> table_;
};

Check check_state(const std::vector<core::Particle>& sorted, std::size_t n_expected,
                  double mass_expected, double eps, std::uint64_t seed, std::size_t targets,
                  double max_rms, double max_p90, bool perturb) {
  Check c;
  Stopwatch sw;
  std::ostringstream why;
  const std::size_t n = sorted.size();
  double mass = 0;
  bool ids_ok = n == n_expected;
  for (std::size_t i = 0; i < n; ++i) {
    mass += sorted[i].mass;
    if (sorted[i].id != i) ids_ok = false;
  }
  if (n != n_expected) why << "particle count " << n << " != " << n_expected << "; ";
  else if (!ids_ok) why << "particle ids are not 0..N-1; ";
  if (!(std::abs(mass - mass_expected) <= 1e-12 * std::abs(mass_expected)))
    why << "total mass " << mass << " != " << mass_expected << "; ";
  if (n < 2) {
    c.why = why.str() + "too few particles for the force check";
    return c;
  }

  // Seeded systematic subsample: every (n/t)-th id from a seeded offset.
  // Ids run clump by clump, then the background, so each IC component
  // contributes its exact share of targets; a plain random draw let that
  // share, and with it the error quantiles, wander between seeds.
  const std::size_t t = std::min(targets, n);
  const std::size_t stride = n / t;
  Rng rng(seed, 0xc4ecc);
  const std::size_t offset = rng.uniform_index(stride);
  std::vector<std::size_t> idx(t);
  for (std::size_t k = 0; k < t; ++k) idx[k] = offset + k * stride;

  // Sources in Morton order of a 1024^3 grid: for one target, consecutive
  // sources then read neighbouring entries of the Ewald correction table
  // instead of random ones across it.
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(n);
  for (std::size_t i = 0; i < n; ++i) keyed[i] = {morton_key(sorted[i].pos), i};
  std::sort(keyed.begin(), keyed.end());
  std::vector<Vec3> pos(n);
  std::vector<double> m(n);
  std::vector<std::size_t> src(n);
  for (std::size_t j = 0; j < n; ++j) {
    src[j] = keyed[j].second;
    pos[j] = sorted[src[j]].pos;
    m[j] = sorted[src[j]].mass;
  }
  const EwaldOracle ew(eps * eps);
  std::vector<double> err(t);
  parallel_for_dynamic(0, t, 1, [&](std::size_t lo, std::size_t hi, unsigned) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = idx[k];
      const Vec3 xi = sorted[i].pos;
      Vec3 ref{};
      for (std::size_t j = 0; j < n; ++j) {
        if (src[j] == i) continue;
        const Vec3 pa = ew.pair(xi - pos[j]);  // field - source
        ref += pa * m[j];
      }
      Vec3 got = sorted[i].acc_s + sorted[i].acc_l;
      if (perturb) got = got * 1.5;
      const double rn = std::sqrt(ref.norm2());
      err[k] = rn > 0 ? std::sqrt((got - ref).norm2()) / rn : std::sqrt(got.norm2());
    }
  });
  double s2 = 0;
  for (double e : err) s2 += e * e;
  c.targets = t;
  c.err_rms = std::sqrt(s2 / static_cast<double>(t));
  std::sort(err.begin(), err.end());
  auto quantile = [&](double q) {
    return err[static_cast<std::size_t>(std::ceil(q * static_cast<double>(t))) - 1];
  };
  c.err_p50 = quantile(0.5);
  c.err_p90 = quantile(0.9);
  c.err_max = err.back();
  if (!(c.err_rms <= max_rms)) why << "force error rms " << c.err_rms << " > " << max_rms << "; ";
  if (!(c.err_p90 <= max_p90)) why << "force error p90 " << c.err_p90 << " > " << max_p90 << "; ";
  c.why = why.str();
  c.ok = c.why.empty();
  c.seconds = sw.seconds();
  return c;
}

// ---------------------------------------------------------------------------
// Layer replay: one cycle of each layer on this rank's final state, through
// the layers' public functions, with the workload's config.  Each call is
// preceded by a barrier so ranks start together; its seconds are reduced
// as max over ranks (the slowest rank sets the step).  Results discarded.

struct Replay {
  double decompose_s = 0, exchange_s = 0, moved = 0;
  double select_ghosts_s = 0, ghost_alltoallv_s = 0, ghosts = 0;
  double build_s = 0, traverse_s = 0;
  double groups = 0, target_groups = 0, nodes_visited = 0, interactions = 0;
  double sum_ni = 0, sum_nj = 0;
  double kernel_s = 0, kernel_interactions = 0, kernel_rank_s = 0;
  double green_s = 0, pm_start_s = 0, pm_fft_s = 0, pm_finish_s = 0, pm_cells = 0;
  double fft_slab_s = 0;
};

Replay replay_layers(parx::Comm& world, const core::ParallelSimulation& sim,
                     const core::ParallelSimConfig& cfg, std::uint64_t seed, Tracer& tracer) {
  const int rank = world.rank();
  Tracer::Scope whole(&tracer, "replay", rank);
  Replay r;
  auto timed = [&](const char* name, double& into, auto&& fn) {
    world.barrier();
    Tracer::Scope sp(&tracer, name, rank);
    const double t0 = now_s();
    fn();
    into = world.allreduce_max(now_s() - t0);
  };

  const auto local = sim.local();
  const std::size_t n_local = local.size();
  std::vector<Vec3> pos = core::positions_of(local);
  std::vector<double> mass = core::masses_of(local);

  // ---- domain: decomposition and particle exchange
  std::vector<double> w(n_local);
  for (std::size_t i = 0; i < n_local; ++i) w[i] = local[i].lb_w;
  domain::Decomposition fresh;
  timed("domain.decompose_s", r.decompose_s, [&] {
    fresh = domain::sample_and_decompose_weighted(world, cfg.dims, pos, w, cfg.sampling,
                                                  sim.step_index() * 1000 + 17);
  });
  const auto dest = domain::destinations(fresh, pos);
  double moved = 0;
  for (int d : dest) moved += d != rank ? 1 : 0;
  r.moved = world.allreduce_sum(moved);
  timed("domain.exchange_s", r.exchange_s, [&] {
    auto out = domain::exchange_by_rank<core::Particle>(world, local, dest);
    (void)out;
  });

  // ---- tree: ghost selection, ghost all-to-all, octree, traversal
  const double rcut = cfg.rcut();
  const auto domains = sim.decomposition().boxes();
  tree::GhostExport exports;
  timed("tree.select_ghosts_s", r.select_ghosts_s,
        [&] { exports = tree::select_ghosts(pos, mass, domains, rank, rcut); });
  std::vector<std::vector<Vec3>> gpos;
  std::vector<std::vector<double>> gmass;
  timed("parx.ghost_alltoallv_s", r.ghost_alltoallv_s, [&] {
    gpos = world.alltoallv(std::move(exports.pos));
    gmass = world.alltoallv(std::move(exports.mass));
  });
  double ghosts = 0;
  for (std::size_t s = 0; s < gpos.size(); ++s) {
    ghosts += static_cast<double>(gpos[s].size());
    pos.insert(pos.end(), gpos[s].begin(), gpos[s].end());
    mass.insert(mass.end(), gmass[s].begin(), gmass[s].end());
  }
  r.ghosts = world.allreduce_sum(ghosts);

  std::optional<tree::Octree> octree;
  timed("tree.build_s", r.build_s,
        [&] { octree.emplace(pos, mass, tree::OctreeParams{cfg.leaf_capacity, 21}); });

  tree::TraversalParams tp;
  tp.theta = cfg.theta;
  tp.rcut = rcut;
  tp.ncrit = cfg.ncrit;
  tp.eps2 = cfg.eps * cfg.eps;
  tp.kernel = cfg.kernel;
  std::vector<Vec3> acc(pos.size(), Vec3{});
  std::vector<tree::GroupCost> costs;
  tree::TraversalStats stats;
  timed("tree.traverse_s", r.traverse_s, [&] {
    stats = tree::tree_accelerations_targets(*octree, tp, n_local, acc, {}, nullptr, &costs);
  });
  double tg = 0;
  std::vector<std::uint32_t> target_nodes;
  for (const auto& gc : costs)
    if (gc.ni > 0) {
      tg += 1;
      target_nodes.push_back(gc.node);
    }
  double counts[6] = {static_cast<double>(costs.size()), tg,
                      static_cast<double>(stats.nodes_visited),
                      static_cast<double>(stats.interactions),
                      static_cast<double>(stats.sum_ni),
                      static_cast<double>(stats.sum_nj)};
  world.allreduce_sum(std::span<double>(counts, 6));
  r.groups = counts[0];
  r.target_groups = counts[1];
  r.nodes_visited = counts[2];
  r.interactions = counts[3];
  r.sum_ni = counts[4];
  r.sum_nj = counts[5];

  // ---- pp: the Phantom kernel on interaction lists of a seeded sample of
  // groups that hold local targets (one thread per rank).
  {
    Rng rng(seed, 0x9900 + static_cast<std::uint64_t>(rank));
    const std::size_t k = std::min(kKernelGroups, target_nodes.size());
    for (std::size_t i = 0; i < k; ++i)
      std::swap(target_nodes[i],
                target_nodes[i + rng.uniform_index(target_nodes.size() - i)]);
    target_nodes.resize(k);
    std::vector<pp::InteractionList> lists(k);
    tree::TraversalStats list_stats;
    for (std::size_t i = 0; i < k; ++i)
      tree::build_interaction_list(*octree, target_nodes[i], tp, Vec3{}, lists[i], list_stats);
    double inter = 0;
    std::vector<Vec3> gacc;
    auto run_kernels = [&] {
      for (std::size_t i = 0; i < k; ++i) {
        const tree::TreeNode& node = octree->nodes()[target_nodes[i]];
        const auto xi = octree->sorted_pos().subspan(node.first, node.count);
        gacc.assign(node.count, Vec3{});
        pp::pp_kernel_phantom(xi, gacc, lists[i], rcut, tp.eps2);
      }
    };
    for (std::size_t i = 0; i < k; ++i)
      inter += static_cast<double>(octree->nodes()[target_nodes[i]].count) *
               static_cast<double>(lists[i].size());
    std::vector<double> reps;
    world.barrier();
    {
      Tracer::Scope sp(&tracer, "pp.kernel_s", rank);
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now_s();
        run_kernels();
        reps.push_back(now_s() - t0);
      }
    }
    const double mine = median(reps);
    r.kernel_s = world.allreduce_max(mine);
    r.kernel_rank_s = world.allreduce_sum(mine);
    r.kernel_interactions = world.allreduce_sum(inter);
  }
  octree.reset();

  // ---- pm: Green table for this rank's slab, then one staged PM cycle on
  // a replay instance (its own constructor, untimed, builds its own table).
  pm::ParallelPm replay_pm(world, cfg.pm);
  timed("pm.green_s", r.green_s, [&] {
    if (replay_pm.converter().is_fft_rank()) {
      const fft::Range z = replay_pm.converter().my_slab();
      auto g = pm::build_green_table(cfg.pm.green_params(), z.begin, z.end());
      (void)g;
    }
  });
  pos.resize(n_local);
  mass.resize(n_local);
  Box box = sim.decomposition().box_of(rank);
  for (const Vec3& q : pos)
    for (std::size_t a = 0; a < 3; ++a) {
      box.lo[a] = std::min(box.lo[a], q[a]);
      box.hi[a] = std::max(box.hi[a], q[a]);
    }
  r.pm_cells = world.allreduce_sum(
      static_cast<double>(pm::region_for_domain(box, cfg.pm.n_mesh, 2).cells()));
  pm::ParallelPm::Cycle cycle;
  timed("pm.start_s", r.pm_start_s, [&] {
    replay_pm.update_domain(box);
    cycle = replay_pm.start_cycle(pos, mass);
  });
  timed("pm.fft_s", r.pm_fft_s, [&] { replay_pm.advance_fft(cycle); });
  std::vector<Vec3> accl(n_local, Vec3{});
  timed("pm.finish_s", r.pm_finish_s, [&] { replay_pm.finish_cycle(cycle, pos, accl); });

  // ---- fft: forward + inverse slab transform on the FFT communicator.
  const bool fft_rank = replay_pm.converter().is_fft_rank();
  std::optional<fft::SlabFft> sf;
  std::vector<fft::Complex> slab;
  if (fft_rank) {
    sf.emplace(replay_pm.converter().fft_comm(), cfg.pm.n_mesh);
    slab.resize(sf->slab_cells());
    Rng rng(seed, 0xff7 + static_cast<std::uint64_t>(rank));
    for (auto& v : slab) v = {rng.uniform(-1, 1), 0.0};
  }
  timed("fft.slab_s", r.fft_slab_s, [&] {
    if (fft_rank) {
      sf->forward(slab);
      sf->inverse(slab);
    }
  });
  return r;
}

// ---------------------------------------------------------------------------
// One run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
};

void usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--tiny] [--perturb-check]\n"
               "workloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
}

bool parse(int argc, char** argv, Options& o) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--tiny") {
        o.tiny = true;
        continue;
      }
      if (a == "--perturb-check") {
        o.perturb = true;
        continue;
      }
      if (i + 1 >= argc) return false;
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return !o.workload.empty() && o.seconds > 0;
}

void write_metric_values(telemetry::JsonWriter& jw, const Metrics& ms) {
  jw.key("metrics").begin_object();
  for (const auto& m : ms.all()) {
    jw.key(m.name).begin_object();
    jw.field_exact("value", m.value).field("unit", m.unit).end_object();
  }
  jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  const Workload* wp = find_workload(opt.workload);
  if (!wp) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    usage();
    return 2;
  }
  const Workload& w = *wp;
  const int nranks = w.dims[0] * w.dims[1] * w.dims[2];

  // Layout guard: rank threads plus pool workers (the pool's submitting
  // participant is the rank thread itself) must fit the cores.
  const std::size_t cores = nproc();
  const std::size_t threads = static_cast<std::size_t>(nranks) + w.pool_threads - 1;
  if (threads > cores) {
    std::cerr << "perfbench: refusing " << w.name << ": " << nranks << " ranks + "
              << w.pool_threads - 1 << " pool workers = " << threads << " threads > nproc "
              << cores << "\n";
    return 3;
  }
  set_num_threads(w.pool_threads);

  const std::size_t n = opt.tiny ? w.tiny_n : w.n;
  const core::ParallelSimConfig cfg = make_config(w, opt.tiny);
  const int nsteps_plain =
      std::max(kMinSteps, static_cast<int>(std::lround(opt.seconds / w.nominal_step_s)));
  const int nsteps = opt.trace ? std::max(kMinTracedSteps, nsteps_plain) : nsteps_plain;
  // The traced run sets up as often as the plain one: the discarded set-ups
  // also warm the allocator (its mmap threshold adapts to the step's
  // buffers), and without them the first ~10 steps run up to 1.7x slower.
  const int setups = kSetupRepeats;
  const std::string run_id = std::string(w.name) + "/seed" + std::to_string(opt.seed) +
                             (opt.trace ? "/trace" : "/plain") + "/" +
                             std::to_string(static_cast<long long>(now_s() * 1e3));

  const std::string kernel = pp::phantom_variant_name(pp::phantom_dispatch());
  const bool optimised = optimised_build();
  {
    const auto meta = telemetry::RunMeta::collect("perfbench", kernel);
    std::ostringstream os;
    telemetry::JsonWriter jw(os, false);
    jw.begin_object().field("perfbench_meta", w.name);
    telemetry::write_meta(jw, meta);
    jw.field("optimised", optimised).field("nproc", cores).field("ranks", nranks);
    jw.field("pool_threads", w.pool_threads).field("threads", threads);
    jw.field("n", n).field("n_mesh", cfg.pm.n_mesh).field("overlap", cfg.overlap);
    jw.field("tiny", opt.tiny).field("steps", nsteps).field("setups", setups);
    jw.end_object();
    std::cout << os.str() << "\n";
    if (!optimised)
      std::cerr << "perfbench: WARNING: build is not optimised (" << meta.build_type
                << "); timings are not comparable\n";
  }

  Tracer tracer(opt.trace, run_id);

  // Results written by rank 0 (scalars reduced over ranks first).
  struct Out {
    std::vector<double> setup_s, ic_s, ctor_s;
    std::vector<double> step_s;         // untraced steps
    std::vector<double> traced_step_s;  // traced steps
    std::vector<double> rank_wait_s, msgs, bytes, model_s;
    std::vector<double> pool_util, pool_imb, pool_steals, pool_chunks;
    std::vector<double> imbalance, imbalance_base, donated_groups, donated_interactions;
    double rss_mb = 0;
    bool rss_steps_only = false;
    double mass0 = 0;
    std::vector<core::Particle> final_state;
    double clock = 0;
    Replay replay;
  } out;

  bool run_ok = true;
  std::string run_error;
  try {
    parx::Runtime rt(nranks);
    rt.run([&](parx::Comm& world) {
      const int rank = world.rank();
      const bool lead = rank == 0;
      std::optional<core::ParallelSimulation> sim;
      for (int rep = 0; rep < setups; ++rep) {
        sim.reset();
        world.barrier();
        Tracer::Scope setup_span(&tracer, "setup", rank);
        const double t0 = now_s();
        std::vector<core::Particle> local;
        if (lead) {
          Tracer::Scope sp(&tracer, "ic.gen_s", rank);
          local = make_ic(w, n, opt.seed);
          out.ic_s.push_back(now_s() - t0);
          if (rep == 0)
            for (const auto& p : local) out.mass0 += p.mass;
        }
        const double t1 = now_s();
        {
          Tracer::Scope sp(&tracer, "core.ctor_s", rank);
          sim.emplace(world, cfg, std::move(local), 0.0);
        }
        world.barrier();
        if (lead) {
          out.ctor_s.push_back(now_s() - t1);
          out.setup_s.push_back(now_s() - t0);
        }
      }

      // Peak RSS covers the steps: the set-up transient (rank 0 holds all
      // N particles until the first exchange) and the heap the discarded
      // set-ups left behind are not part of it.
      world.barrier();
      if (lead) out.rss_steps_only = reset_peak_rss();
      world.barrier();
      for (int s = 1; s <= nsteps; ++s) {
        const double t_next = s * kDt;
        // Traced and untraced steps alternate in ABBA order (U T T U U T ...),
        // so a slow first step or a drift over the run biases neither side.
        const bool traced = opt.trace && (s % 4 == 2 || s % 4 == 3);
        if (!traced) {
          world.barrier();
          const double t0 = now_s();
          sim->step(t_next);
          world.barrier();
          if (lead) out.step_s.push_back(now_s() - t0);
          continue;
        }
        // Traced step: ledger epoch and pool counters around step(), a span
        // around it, and the barrier-wait probe after it.
        world.barrier();
        std::optional<parx::TrafficLedger::Epoch> ep;
        if (lead) {
          ep.emplace(world.ledger().begin_phase("step"));
          TaskPool::global().reset_stats();
        }
        world.barrier();
        const double t0 = now_s();
        {
          Tracer::Scope sp(&tracer, "core.step_s", rank);
          sim->step(t_next);
        }
        const double ret = now_s() - t0;
        {
          Tracer::Scope sp(&tracer, "core.rank_wait_s", rank);
          world.barrier();
        }
        const double wall = now_s() - t0;
        if (lead) {
          out.traced_step_s.push_back(wall);
          const parx::TrafficCounts d = ep->delta();
          const parx::TrafficTotals tt = d.totals();
          out.msgs.push_back(static_cast<double>(tt.messages));
          out.bytes.push_back(static_cast<double>(tt.bytes));
          out.model_s.push_back(d.model_time());
          const auto ps = TaskPool::global().stats();
          double busy = 0;
          for (double b : ps.busy_s) busy += b;
          const double slots = static_cast<double>(std::max<std::size_t>(1, ps.busy_s.size()));
          out.pool_util.push_back(ps.elapsed_s > 0 ? busy / (slots * ps.elapsed_s) : 0);
          out.pool_imb.push_back(ps.imbalance());
          out.pool_steals.push_back(static_cast<double>(ps.steals));
          out.pool_chunks.push_back(static_cast<double>(ps.chunks));
        }
        // The probe's collectives below must not send before the lead has
        // read the ledger delta, or a timing-dependent part of their
        // traffic lands in this step's counts.
        world.barrier();
        const double slowest = world.allreduce_max(ret);
        const double mean_gap = world.allreduce_sum(slowest - ret) / world.size();
        const auto& ls = sim->last_step();
        const double inter = static_cast<double>(ls.pp_stats.interactions);
        const double imax = world.allreduce_max(inter);
        const double isum = world.allreduce_sum(inter);
        double dn[2] = {static_cast<double>(ls.donated_groups),
                        static_cast<double>(ls.donated_interactions)};
        world.allreduce_sum(std::span<double>(dn, 2));
        if (lead) {
          out.rank_wait_s.push_back(mean_gap);
          const double mean = isum / world.size();
          out.imbalance.push_back(mean > 0 ? imax / mean : 0);
          out.imbalance_base.push_back(mean);
          out.donated_groups.push_back(dn[0]);
          out.donated_interactions.push_back(dn[1]);
        }
      }
      world.barrier();
      if (lead) out.rss_mb = peak_rss_mb();

      if (opt.trace) out.replay = replay_layers(world, *sim, cfg, opt.seed, tracer);

      auto sorted = svc::gather_sorted(world, *sim);
      if (lead) {
        out.final_state = std::move(sorted);
        out.clock = sim->clock();
      }
    });
  } catch (const std::exception& e) {
    run_ok = false;
    run_error = e.what();
  }

  // Correctness gate on the main thread, with the pool at the core count
  // (the rank threads have exited).
  Check check;
  std::uint64_t hash = 0;
  if (run_ok) {
    set_num_threads(cores);
    check = check_state(out.final_state, n, out.mass0, cfg.eps, opt.seed,
                        opt.tiny ? kTinyCheckTargets : w.check_targets,
                        opt.tiny ? w.tiny_max_rms : w.max_rms,
                        opt.tiny ? w.tiny_max_p90 : w.max_p90, opt.perturb);
    hash = svc::state_hash(out.final_state, out.clock);
  } else {
    check.why = "run failed: " + run_error;
  }
  const bool correct = run_ok && check.ok;
  const std::uint64_t attempted = static_cast<std::uint64_t>(nsteps);
  const std::uint64_t failed = correct ? 0 : attempted;

  // ---- metrics
  Metrics ms;
  const bool multi_rank = nranks > 1;
  const bool pooled = w.pool_threads > 1;
  if (!opt.trace) {
    ms.add("step_s", "s", "wall", median(out.step_s), out.step_s.size());
    ms.add("setup_s", "s", "wall", median(out.setup_s), out.setup_s.size());
    ms.add("peak_rss_mb", "MiB", "count", out.rss_mb);
    // The rms stays in the gate and the detail line, not among the metrics:
    // near clump centres the force nearly cancels, so single targets reach
    // relative errors of 0.1 and the rms of 256 targets read IQR 26% of its
    // median over 10 seeds on clustered_1m, beyond any allowed bound.
    ms.add("force_err_p50", "ratio", "count", check.err_p50, check.targets);
    ms.add("force_err_p90", "ratio", "count", check.err_p90, check.targets);
  } else {
    const Replay& r = out.replay;
    // setup layers
    ms.add("ic.gen_s", "s", "wall", median(out.ic_s), out.ic_s.size());
    ms.add("core.ctor_s", "s", "wall", median(out.ctor_s), out.ctor_s.size());
    ms.add("pm.green_s", "s", "wall", r.green_s);
    // core
    const double traced = median(out.traced_step_s), plain = median(out.step_s);
    ms.add("core.step_s", "s", "wall", traced, out.traced_step_s.size());
    if (multi_rank)
      ms.add("core.rank_wait_s", "s", "wall", median(out.rank_wait_s), out.rank_wait_s.size());
    else
      ms.na("core.rank_wait_s", "s", "wall");
    // domain
    ms.add("domain.decompose_s", "s", "wall", r.decompose_s);
    ms.add("domain.exchange_s", "s", "wall", r.exchange_s);
    ms.add("domain.moved", "count", "count", r.moved);
    if (multi_rank) {
      ms.add("domain.interaction_imbalance", "ratio", "count", median(out.imbalance),
             out.imbalance.size())
          .base = median(out.imbalance_base);
      ms.add("lb.donated_groups", "count", "count", median(out.donated_groups),
             out.donated_groups.size());
      ms.add("lb.donated_interactions", "count", "count", median(out.donated_interactions),
             out.donated_interactions.size());
    } else {
      ms.na("domain.interaction_imbalance", "ratio", "count");
      ms.na("lb.donated_groups", "count", "count");
      ms.na("lb.donated_interactions", "count", "count");
    }
    // tree
    ms.add("tree.select_ghosts_s", "s", "wall", r.select_ghosts_s);
    ms.add("tree.ghosts", "count", "count", r.ghosts);
    ms.add("tree.build_s", "s", "wall", r.build_s);
    ms.add("tree.traverse_s", "s", "wall", r.traverse_s);
    ms.add("tree.groups", "count", "count", r.groups);
    ms.add("tree.nodes_visited", "count", "count", r.nodes_visited);
    ms.add("tree.interactions", "count", "count", r.interactions);
    ms.add("tree.mean_ni", "count", "count", r.groups > 0 ? r.sum_ni / r.groups : 0);
    ms.add("tree.mean_nj", "count", "count", r.groups > 0 ? r.sum_nj / r.groups : 0);
    ms.add("tree.target_group_frac", "ratio", "count",
           r.groups > 0 ? r.target_groups / r.groups : 0)
        .base = r.groups;
    // pp
    ms.add("pp.kernel_s", "s", "wall", r.kernel_s, 3);
    ms.add("pp.gflops", "Gflop/s", "wall",
           r.kernel_rank_s > 0
               ? kFlopsPerInteraction * r.kernel_interactions / r.kernel_rank_s / 1e9
               : 0,
           3);
    // pm / fft
    ms.add("pm.start_s", "s", "wall", r.pm_start_s);
    ms.add("pm.fft_s", "s", "wall", r.pm_fft_s);
    ms.add("pm.finish_s", "s", "wall", r.pm_finish_s);
    ms.add("fft.slab_s", "s", "wall", r.fft_slab_s);
    ms.add("pm.cells", "count", "count", r.pm_cells);
    // parx
    if (multi_rank) {
      ms.add("parx.msgs", "count", "count", median(out.msgs), out.msgs.size());
      ms.add("parx.bytes", "bytes", "count", median(out.bytes), out.bytes.size());
      ms.add("parx.model_s", "s", "count", median(out.model_s), out.model_s.size());
      ms.add("parx.ghost_alltoallv_s", "s", "wall", r.ghost_alltoallv_s);
    } else {
      ms.na("parx.msgs", "count", "count");
      ms.na("parx.bytes", "bytes", "count");
      ms.na("parx.model_s", "s", "count");
      ms.na("parx.ghost_alltoallv_s", "s", "wall");
    }
    // util
    if (pooled) {
      ms.add("pool.utilization", "ratio", "ratio", median(out.pool_util), out.pool_util.size());
      ms.add("pool.imbalance", "ratio", "ratio", median(out.pool_imb), out.pool_imb.size());
      ms.add("pool.steals", "count", "count", median(out.pool_steals), out.pool_steals.size());
      ms.add("pool.chunks", "count", "count", median(out.pool_chunks), out.pool_chunks.size());
    } else {
      ms.na("pool.utilization", "ratio", "ratio");
      ms.na("pool.imbalance", "ratio", "ratio");
      ms.na("pool.steals", "count", "count");
      ms.na("pool.chunks", "count", "count");
    }
    // telemetry
    ms.add("trace.overhead_frac", "ratio", "ratio", plain > 0 ? traced / plain - 1 : 0,
           out.step_s.size());
  }

  // ---- detail line (clocks, samples, n/a, hash, check) for diff.py
  {
    std::ostringstream os;
    telemetry::JsonWriter jw(os, false);
    jw.begin_object().field("perfbench_detail", w.name).field("seed", opt.seed);
    jw.field("trace", opt.trace).field("tiny", opt.tiny).field("run_id", run_id);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
    jw.field("state_hash", std::string(hex)).field("steps", nsteps);
    jw.field("rss_steps_only", out.rss_steps_only);
    jw.key("step_s_all").begin_array();
    for (double v : out.step_s) jw.value_exact(v);
    jw.end_array().key("setup_s_all").begin_array();
    for (double v : out.setup_s) jw.value_exact(v);
    jw.end_array();
    jw.field("attempted", attempted).field("failed", failed);
    jw.field_exact("failed_step_frac",
                   static_cast<double>(failed) / static_cast<double>(attempted));
    jw.key("check").begin_object();
    jw.field("ok", check.ok).field("why", check.why).field("targets", check.targets);
    jw.field_exact("err_rms", check.err_rms).field_exact("err_p50", check.err_p50);
    jw.field_exact("err_p90", check.err_p90);
    jw.field_exact("err_max", check.err_max).field_exact("seconds", check.seconds);
    jw.end_object();
    jw.key("metrics").begin_object();
    for (const auto& m : ms.all()) {
      jw.key(m.name).begin_object();
      jw.field_exact("value", m.value).field("unit", m.unit).field("clock", m.clock);
      jw.field("samples", m.samples);
      if (m.na) jw.field("na", true);
      if (m.base) jw.field_exact("base", *m.base);
      jw.end_object();
    }
    jw.end_object();
    if (opt.trace) {
      jw.key("self_s").begin_object();
      for (const auto& [name, s] : tracer.self_seconds()) jw.field_exact(name, s);
      jw.end_object();
    }
    jw.end_object();
    std::cout << os.str() << "\n";
  }
  if (opt.trace) {
    const std::string path = ".bench_build/spans/" + std::string(w.name) + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write(path)) std::cerr << "perfbench: could not write spans to " << path << "\n";
  }
  if (!correct) std::cerr << "perfbench: CHECK FAILED: " << check.why << "\n";

  // ---- result line (last line of stdout)
  {
    std::ostringstream os;
    telemetry::JsonWriter jw(os, false);
    jw.begin_object().field("correct", correct).field("attempted", attempted);
    jw.field("failed", failed);
    write_metric_values(jw, ms);
    jw.end_object();
    std::cout << os.str() << std::endl;
  }
  return correct ? 0 : 1;
}
