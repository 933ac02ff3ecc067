#include "tree/traversal.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

namespace greem::tree {
namespace {

/// Squared distance between two axis-aligned cubes (center, half-size).
double box_box_dist2(const Vec3& c1, double h1, const Vec3& c2, double h2) {
  double d2 = 0;
  for (int a = 0; a < 3; ++a) {
    const double gap = std::abs(c1[static_cast<std::size_t>(a)] - c2[static_cast<std::size_t>(a)]) - (h1 + h2);
    if (gap > 0) d2 += gap * gap;
  }
  return d2;
}

/// Squared distance from a point to a cube (center, half-size).
double point_box_dist2(const Vec3& p, const Vec3& c, double h) {
  double d2 = 0;
  for (int a = 0; a < 3; ++a) {
    const double gap = std::abs(p[static_cast<std::size_t>(a)] - c[static_cast<std::size_t>(a)]) - h;
    if (gap > 0) d2 += gap * gap;
  }
  return d2;
}

struct Walker {
  const Octree& tree;
  const TraversalParams& params;
  const TreeNode* group;
  Vec3 offset;
  pp::InteractionList* list;
  TraversalStats* stats;
  std::vector<pp::QuadSource>* quad_list = nullptr;  ///< kNewtonQuad only
  /// Opened leaf sources with original index >= ghost_from are counted as
  /// ghost imports (parallel ranks: locals precede ghosts).  count_ghosts
  /// false (the default) skips the per-particle index lookup entirely.
  bool count_ghosts = false;
  std::uint32_t ghost_from = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t ghost_sources = 0;

  void walk(std::uint32_t ni) {
    const TreeNode& node = tree.nodes()[ni];
    ++stats->nodes_visited;
    if (node.count == 0) return;

    const Vec3 node_center = node.center + offset;
    // Cutoff pruning: if every pair (group target, node source) is beyond
    // rcut, the gP3M factor vanishes and the node contributes nothing.
    if (std::isfinite(params.rcut)) {
      const double d2 = box_box_dist2(group->center, group->half, node_center, node.half);
      if (d2 > params.rcut * params.rcut) return;
    }

    // Multipole acceptance: cell size over the closest approach of the
    // group box to the node's center of mass, plus non-overlap.
    const Vec3 node_com = node.com + offset;
    const double dcom2 = point_box_dist2(node_com, group->center, group->half);
    const double size = 2.0 * node.half;
    const bool accept = dcom2 > 0 && size * size < params.theta * params.theta * dcom2 &&
                        box_box_dist2(group->center, group->half, node_center, node.half) > 0;
    if (accept) {
      if (quad_list) {
        quad_list->push_back({node_com, node.mass, node.quad});
      } else {
        list->add(node_com, node.mass);
      }
      return;
    }
    if (node.is_leaf()) {
      const auto pos = tree.sorted_pos();
      const auto mass = tree.sorted_mass();
      for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
        list->add(pos[i] + offset, mass[i]);
        if (count_ghosts && tree.original_index(i) >= ghost_from) ++ghost_sources;
      }
      return;
    }
    for (std::uint32_t c = 0; c < node.nchildren; ++c) walk(node.first_child + c);
  }
};

TraversalStats run_traversal(const Octree& tree, const TraversalParams& params,
                             std::size_t n_targets, std::span<Vec3> acc,
                             std::span<const Vec3> image_offsets, TraversalTimes* times,
                             std::vector<GroupCost>* group_costs) {
  static const Vec3 kHome{0, 0, 0};
  if (image_offsets.empty()) image_offsets = {&kHome, 1};

  telemetry::Span span("tree/traversal_force");
  TraversalStats stats;
  if (group_costs) group_costs->clear();
  if (tree.num_particles() == 0) return stats;

  const auto group_nodes = tree.groups(params.ncrit);
  const bool quad = params.kernel == KernelKind::kNewtonQuad;
  if (group_costs) group_costs->assign(group_nodes.size(), GroupCost{});
  // Ghost attribution only pays its per-source index lookup when ghosts
  // can exist at all (parallel ranks importing sources beyond n_targets).
  const bool count_ghosts = n_targets < tree.num_particles();

  // Groups own disjoint particle ranges, so the group loop parallelizes
  // over the intra-rank thread pool (the paper's MPI/OpenMP hybrid: ranks
  // distribute domains, threads share the group list).  Groups are
  // dynamically scheduled one at a time -- interaction-list sizes vary by
  // orders of magnitude between clustered and void regions, so static
  // chunking load-imbalances badly.  Each pool slot reuses one scratch set
  // (interaction list, gathered targets, per-group accumulators) across all
  // groups it takes.  Accumulated phase seconds are summed CPU time.
  struct SlotScratch {
    TraversalStats stats;
    double traverse_s = 0, force_s = 0;
    std::vector<Vec3> targets;
    std::vector<std::uint32_t> target_index;  ///< original index per target
    std::vector<Vec3> group_acc;
    pp::InteractionList list;
    std::vector<pp::QuadSource> quad_nodes;
  };
  std::vector<SlotScratch> scratch(max_parallel_slots());

  parallel_for_dynamic(0, group_nodes.size(), 1, [&](std::size_t lo, std::size_t hi, unsigned slot) {
    SlotScratch& sc = scratch[slot];
    TraversalStats& local_stats = sc.stats;
    std::vector<Vec3>& targets = sc.targets;
    std::vector<std::uint32_t>& target_index = sc.target_index;
    std::vector<Vec3>& group_acc = sc.group_acc;
    pp::InteractionList& list = sc.list;
    std::vector<pp::QuadSource>& quad_nodes = sc.quad_nodes;
    Stopwatch sw;

    for (std::size_t gidx = lo; gidx < hi; ++gidx) {
      const TreeNode& g = tree.nodes()[group_nodes[gidx]];
      // Per-group cost record: slot gidx is this group's regardless of
      // which pool slot ran it, so the output is deterministically indexed.
      GroupCost* gc = group_costs ? &(*group_costs)[gidx] : nullptr;
      if (gc) gc->node = group_nodes[gidx];

      // Gather the group's targets (locals): only they are evaluated and
      // counted toward the paper's statistics.  A group of ghosts alone has
      // no force to compute: skip its walk, and leave its cost record zero
      // apart from the node.
      targets.clear();
      target_index.clear();
      const auto pos = tree.sorted_pos();
      for (std::uint32_t i = g.first; i < g.first + g.count; ++i) {
        const std::uint32_t orig = tree.original_index(i);
        if (orig >= n_targets) continue;
        targets.push_back(pos[i]);
        target_index.push_back(orig);
      }
      const std::uint64_t ni_targets = targets.size();
      if (ni_targets == 0) continue;

      sw.restart();
      list.clear();
      quad_nodes.clear();
      Walker walker{tree, params, &g, {}, &list, &local_stats,
                    quad ? &quad_nodes : nullptr};
      walker.count_ghosts = count_ghosts;
      walker.ghost_from = static_cast<std::uint32_t>(n_targets);
      for (const Vec3& off : image_offsets) {
        walker.offset = off;
        walker.walk(0);
      }
      const std::uint64_t nj = list.size() + quad_nodes.size();
      const double walk_s = sw.seconds();
      sc.traverse_s += walk_s;

      ++local_stats.ngroups;
      local_stats.sum_ni += ni_targets;
      local_stats.sum_nj += nj;
      local_stats.interactions += ni_targets * nj;
      local_stats.ghost_sources += walker.ghost_sources;

      if (gc) {
        gc->ni = static_cast<std::uint32_t>(ni_targets);
        gc->nj = nj;
        gc->interactions = ni_targets * nj;
        gc->ghost_sources = walker.ghost_sources;
        gc->walk_s = walk_s;
        gc->center = g.center;
        gc->half = g.half;
      }

      sw.restart();
      group_acc.assign(targets.size(), Vec3{});
      switch (params.kernel) {
        case KernelKind::kScalar:
          pp_kernel_scalar(targets, group_acc, list, params.rcut, params.eps2);
          break;
        case KernelKind::kPhantom:
          pp_kernel_phantom_sp(targets, group_acc, list, params.rcut, params.eps2);
          break;
        case KernelKind::kNewton:
          pp_kernel_newton(targets, group_acc, list, params.eps2);
          break;
        case KernelKind::kNewtonQuad:
          pp_kernel_newton(targets, group_acc, list, params.eps2);
          pp_kernel_quadrupole(targets, group_acc, quad_nodes, params.eps2);
          break;
      }
      // Disjoint writes: each tree-order particle belongs to one group.
      for (std::size_t k = 0; k < targets.size(); ++k) acc[target_index[k]] += group_acc[k];
      const double force_s = sw.seconds();
      sc.force_s += force_s;
      if (gc) gc->force_s = force_s;
    }
  });

  // Merge in slot order after the barrier: no lock, and the integer stats
  // totals are identical for every pool size (sums commute; which slot ran
  // which group does not matter).
  double traverse_s = 0, force_s = 0;
  for (SlotScratch& sc : scratch) {
    stats.merge(sc.stats);
    traverse_s += sc.traverse_s;
    force_s += sc.force_s;
  }

  if (times) {
    times->traverse_s += traverse_s;
    times->force_s += force_s;
  }

  // Interaction counts feed the achieved-flops accounting (51
  // flops/interaction, §II-A); reports convert, the hot path only counts.
  if constexpr (telemetry::enabled()) {
    auto& reg = telemetry::Registry::global();
    reg.counter("tree/interactions").add(stats.interactions);
    reg.counter("tree/groups").add(stats.ngroups);
    reg.counter("tree/nodes_visited").add(stats.nodes_visited);
    reg.counter("tree/ghost_sources").add(stats.ghost_sources);
    if (group_costs) {
      // Distribution views of the cost attribution (imbalance shows up as
      // a heavy tail long before the per-step means move).
      auto& walk_h = reg.histogram("pp/group_walk_s");
      auto& int_h = reg.histogram("pp/group_interactions");
      for (const GroupCost& gc : *group_costs) {
        walk_h.record(gc.walk_s);
        int_h.record(static_cast<double>(gc.interactions));
      }
    }
  }
  return stats;
}

}  // namespace

void TraversalStats::merge(const TraversalStats& o) {
  ngroups += o.ngroups;
  sum_ni += o.sum_ni;
  sum_nj += o.sum_nj;
  interactions += o.interactions;
  nodes_visited += o.nodes_visited;
  ghost_sources += o.ghost_sources;
}

TraversalStats tree_accelerations(const Octree& tree, const TraversalParams& params,
                                  std::span<Vec3> acc, std::span<const Vec3> image_offsets,
                                  TraversalTimes* times) {
  return run_traversal(tree, params, tree.num_particles(), acc, image_offsets, times, nullptr);
}

TraversalStats tree_accelerations_targets(const Octree& tree, const TraversalParams& params,
                                          std::size_t n_targets, std::span<Vec3> acc,
                                          std::span<const Vec3> image_offsets,
                                          TraversalTimes* times,
                                          std::vector<GroupCost>* group_costs) {
  return run_traversal(tree, params, n_targets, acc, image_offsets, times, group_costs);
}

TraversalStats tree_potentials(const Octree& tree, const TraversalParams& params,
                               std::span<double> pot,
                               std::span<const Vec3> image_offsets) {
  static const Vec3 kHome{0, 0, 0};
  if (image_offsets.empty()) image_offsets = {&kHome, 1};
  TraversalStats stats;
  if (tree.num_particles() == 0) return stats;

  const auto group_nodes = tree.groups(params.ncrit);
  pp::InteractionList list;
  std::vector<double> group_pot;
  for (const std::uint32_t gi : group_nodes) {
    const TreeNode& g = tree.nodes()[gi];
    list.clear();
    Walker walker{tree, params, &g, {}, &list, &stats, nullptr};
    for (const Vec3& off : image_offsets) {
      walker.offset = off;
      walker.walk(0);
    }
    ++stats.ngroups;
    stats.sum_ni += g.count;
    stats.sum_nj += list.size();
    stats.interactions += static_cast<std::uint64_t>(g.count) * list.size();

    group_pot.assign(g.count, 0.0);
    const std::span<const Vec3> targets = tree.sorted_pos().subspan(g.first, g.count);
    pp_potential_scalar(targets, group_pot, list, params.rcut, params.eps2);
    for (std::uint32_t i = 0; i < g.count; ++i)
      pot[tree.original_index(g.first + i)] += group_pot[i];
  }
  return stats;
}

void build_interaction_list(const Octree& tree, std::uint32_t group_node,
                            const TraversalParams& params, const Vec3& offset,
                            pp::InteractionList& list, TraversalStats& stats) {
  Walker walker{tree, params, &tree.nodes()[group_node], offset, &list, &stats};
  walker.walk(0);
}

}  // namespace greem::tree
