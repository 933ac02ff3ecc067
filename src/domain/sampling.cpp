#include "domain/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace greem::domain {

namespace {

// One (weight, capacity) pair per rank, allgathered so every rank runs the
// identical apportionment and agrees on all quotas without extra traffic.
struct RankLoad {
  double weight;
  double capacity;
};

std::vector<std::size_t> collect_quotas(parx::Comm& comm, double local_weight,
                                        std::size_t local_capacity, std::size_t target) {
  RankLoad mine{local_weight, static_cast<double>(local_capacity)};
  auto all = comm.allgatherv(std::span<const RankLoad>(&mine, 1));
  std::vector<double> weights(all.size());
  std::vector<std::size_t> caps(all.size());
  for (std::size_t r = 0; r < all.size(); ++r) {
    weights[r] = all[r].weight;
    caps[r] = static_cast<std::size_t>(all[r].capacity);
  }
  return apportion_samples(weights, caps, target);
}

// Gather the selected sample positions at the root, build the multisection
// there, then broadcast size-then-payload (non-root ranks do not know the
// flattened cut count up front: it depends on dims only, but being explicit
// keeps the protocol self-describing and removes the old dead-variable
// pattern around comm.bcast of an empty vector).
Decomposition gather_build_bcast(parx::Comm& comm, std::array<int, 3> dims,
                                 std::span<const Vec3> mine) {
  auto gathered = comm.gatherv(mine, 0);

  std::vector<double> flat;
  if (comm.rank() == 0) {
    Decomposition d = build_multisection(dims, std::move(gathered));
    flat = d.flatten();
  }
  std::uint64_t flat_count = flat.size();
  comm.bcast_span(std::span<std::uint64_t>(&flat_count, 1), 0);
  flat.resize(flat_count);
  comm.bcast_span(std::span<double>(flat), 0);
  return Decomposition::unflatten(dims, flat);
}

}  // namespace

std::vector<std::size_t> apportion_samples(std::span<const double> weights,
                                           std::span<const std::size_t> capacities,
                                           std::size_t target) {
  const std::size_t p = capacities.size();
  std::vector<std::size_t> alloc(p, 0);
  if (p == 0) return alloc;

  std::size_t cap_total = 0;
  for (std::size_t r = 0; r < p; ++r) cap_total += capacities[r];
  std::size_t total = std::min(target, cap_total);
  if (total == 0) return alloc;

  std::vector<double> w(p, 0.0);
  double wsum = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    double wr = (r < weights.size() && weights[r] > 0 && capacities[r] > 0) ? weights[r] : 0.0;
    w[r] = wr;
    wsum += wr;
  }
  if (wsum <= 0) {
    // No usable cost signal: fall back to capacity-proportional quotas
    // (uniform sampling density over all particles).
    for (std::size_t r = 0; r < p; ++r) w[r] = static_cast<double>(capacities[r]);
  }

  // Iterative proportional fill with cap saturation: ranks whose fair share
  // exceeds their particle count are pinned at capacity and their surplus is
  // redistributed over the rest, until no new rank saturates.
  std::vector<bool> capped(p, false);
  std::size_t remaining = total;
  for (;;) {
    double active_w = 0.0;
    for (std::size_t r = 0; r < p; ++r)
      if (!capped[r]) active_w += w[r];
    if (active_w <= 0) {
      // All positive-weight ranks capped; spill the rest over uncapped
      // ranks by capacity.
      for (std::size_t r = 0; r < p; ++r)
        if (!capped[r]) active_w += static_cast<double>(capacities[r]);
      if (active_w <= 0) break;
      for (std::size_t r = 0; r < p; ++r)
        if (!capped[r] && w[r] <= 0) w[r] = static_cast<double>(capacities[r]);
      continue;
    }
    bool newly_capped = false;
    for (std::size_t r = 0; r < p; ++r) {
      if (capped[r]) continue;
      double share = w[r] / active_w * static_cast<double>(remaining);
      if (share >= static_cast<double>(capacities[r])) {
        alloc[r] = capacities[r];
        capped[r] = true;
        newly_capped = true;
      }
    }
    if (!newly_capped) break;
    remaining = total;
    for (std::size_t r = 0; r < p; ++r)
      if (capped[r]) remaining -= std::min(alloc[r], remaining);
  }

  // Largest-remainder apportionment of what is left over the unsaturated
  // ranks: integer floors first, then hand the residual out one sample at a
  // time by descending fractional remainder (ties to the lower rank), so the
  // grand total is exact by construction.
  double active_w = 0.0;
  for (std::size_t r = 0; r < p; ++r)
    if (!capped[r]) active_w += w[r];
  if (remaining > 0 && active_w > 0) {
    std::vector<std::pair<double, std::size_t>> rema;  // (-frac, rank)
    std::size_t floored = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (capped[r]) continue;
      double exact = w[r] / active_w * static_cast<double>(remaining);
      auto fl = static_cast<std::size_t>(exact);
      fl = std::min(fl, capacities[r]);
      alloc[r] = fl;
      floored += fl;
      if (fl < capacities[r]) rema.emplace_back(-(exact - static_cast<double>(fl)), r);
    }
    std::sort(rema.begin(), rema.end());
    std::size_t residual = remaining - std::min(floored, remaining);
    // One pass by remainder rarely covers the full residual when floors hit
    // caps; keep cycling over ranks with headroom (still deterministic).
    while (residual > 0) {
      bool progressed = false;
      for (auto& [negfrac, r] : rema) {
        if (residual == 0) break;
        if (alloc[r] < capacities[r]) {
          ++alloc[r];
          --residual;
          progressed = true;
        }
      }
      if (!progressed) break;
    }
  }

  // >= 1-sample floor: a rank that holds particles but drew no samples could
  // never move its boundaries (its measured cost stays whatever the stale
  // cuts dictate).  Fund each floor by docking the largest allocation that
  // can spare one, keeping the total exact.
  for (std::size_t r = 0; r < p; ++r) {
    if (capacities[r] == 0 || alloc[r] > 0) continue;
    std::size_t donor = p;
    std::size_t donor_alloc = 1;
    for (std::size_t d = 0; d < p; ++d) {
      if (alloc[d] > donor_alloc) {
        donor_alloc = alloc[d];
        donor = d;
      }
    }
    if (donor == p) break;  // nobody has >= 2 samples; floor is best-effort
    --alloc[donor];
    alloc[r] = 1;
  }
  return alloc;
}

std::vector<std::size_t> sample_weighted_without_replacement(std::span<const double> weights,
                                                             std::size_t k, Rng& rng) {
  const std::size_t n = weights.size();
  k = std::min(k, n);
  std::vector<std::size_t> selected;
  if (k == 0) return selected;

  // Efraimidis-Spirakis A-Res: key_i = u_i^(1/w_i); the k largest keys form
  // a weighted sample without replacement.  Non-positive weights get a
  // strictly negative key (-u_i) so they are drawn only after every
  // positive-weight item, with a deterministic relative order.
  std::vector<std::pair<double, std::size_t>> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.uniform();
    double key = weights[i] > 0 ? std::pow(u, 1.0 / weights[i]) : -u;
    keys[i] = {key, i};
  }
  auto better = [](const std::pair<double, std::size_t>& a,
                   const std::pair<double, std::size_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  std::nth_element(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(k - 1), keys.end(),
                   better);
  selected.reserve(k);
  for (std::size_t i = 0; i < k; ++i) selected.push_back(keys[i].second);
  std::sort(selected.begin(), selected.end());
  return selected;
}

Decomposition sample_and_decompose_weighted(parx::Comm& comm, std::array<int, 3> dims,
                                            std::span<const Vec3> local_pos,
                                            std::span<const double> weights,
                                            const SamplingParams& params, std::uint64_t step) {
  double wsum = 0.0;
  for (double w : weights)
    if (w > 0) wsum += w;
  auto quotas = collect_quotas(comm, wsum, local_pos.size(), params.target_samples);
  const std::size_t want = quotas[static_cast<std::size_t>(comm.rank())];

  Rng rng(params.seed + step, static_cast<std::uint64_t>(comm.rank()));
  auto picks = sample_weighted_without_replacement(weights, want, rng);
  std::vector<Vec3> mine;
  mine.reserve(picks.size());
  for (std::size_t i : picks) mine.push_back(local_pos[i]);

  return gather_build_bcast(comm, dims, mine);
}

}  // namespace greem::domain
