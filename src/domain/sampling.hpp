#pragma once
// The sampling method (Blackston & Suel) with the paper's cost-weighted
// sampling rates: each rank samples its particles at a rate proportional
// to its measured force-calculation cost, the root gathers the samples and
// builds a multi-section decomposition with equal sample counts per
// domain, so expensive regions get smaller domains.
//
// The cost is resolved per particle (docs/load-balance.md): every particle
// carries its share of its Barnes group's interaction count, so the sample
// density follows where the work sits inside a domain, not just how much
// of it each rank holds.
//
// Per-rank sample quotas use largest-remainder apportionment with a
// >= 1-sample floor for every rank that holds particles: gathered totals
// are exact (no per-rank rounding drift) and a rank whose measured cost is
// zero can still move its boundaries.  All sampling is without replacement
// and deterministic per (seed, step, rank).

#include <cstdint>
#include <span>
#include <vector>

#include "domain/multisection.hpp"
#include "parx/comm.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace greem::domain {

struct SamplingParams {
  std::size_t target_samples = 50000;  ///< total samples gathered at the root
  std::uint64_t seed = 12345;
};

/// Largest-remainder (Hamilton) apportionment of `target` samples over
/// ranks proportional to `weights`, capped at `capacities` (a rank cannot
/// contribute more samples than particles) and floored at >= 1 for every
/// rank with nonzero capacity whenever the target allows it.  Negative
/// weights count as zero; when every weight is zero the capacities
/// themselves act as weights (uniform-density sampling).  The returned
/// quotas sum to min(target, sum of capacities) exactly.  Deterministic:
/// ties break toward the lower rank.
std::vector<std::size_t> apportion_samples(std::span<const double> weights,
                                           std::span<const std::size_t> capacities,
                                           std::size_t target);

/// Weighted sampling without replacement (Efraimidis-Spirakis): draw `k`
/// distinct indices with inclusion probability increasing in weights[i],
/// via the key u^(1/w) order statistic (duplicates would skew the
/// equal-count multisection cuts).  Zero/negative-weight items are
/// only drawn once every positive-weight item is exhausted.  Returned in
/// increasing order; deterministic for a given rng state (ties break by
/// index).  k is clamped to weights.size().
std::vector<std::size_t> sample_weighted_without_replacement(std::span<const double> weights,
                                                             std::size_t k, Rng& rng);

/// Collective: sample local particles, gather the samples at the root
/// (rank 0), build the decomposition there and broadcast it.  `weights`
/// holds one non-negative cost per local particle (tree::GroupCost
/// scattered onto the group's members); the rank quota follows the summed
/// weights and the samples within the rank are drawn
/// weighted-without-replacement, so expensive subregions of a domain are
/// over-sampled and therefore shrunk.  All-zero weights (before the first
/// force cycle) give uniform-density sampling.  `weights.size()` must
/// equal `local_pos.size()`.
Decomposition sample_and_decompose_weighted(parx::Comm& comm, std::array<int, 3> dims,
                                            std::span<const Vec3> local_pos,
                                            std::span<const double> weights,
                                            const SamplingParams& params, std::uint64_t step);

}  // namespace greem::domain
