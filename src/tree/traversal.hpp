#pragma once
// Barnes' modified tree traversal (Barnes 1990): the walk is performed once
// per *group* of particles; the resulting interaction list (accepted
// multipoles + opened leaf particles) is shared by every particle of the
// group and evaluated by the PP kernel.  This trades a factor <Ni> in
// traversal cost for longer interaction lists — the tradeoff the paper
// tunes to <Ni> ~ 100 on K computer.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pp/kernels.hpp"
#include "tree/octree.hpp"
#include "util/vec3.hpp"

namespace greem::tree {

enum class KernelKind {
  kScalar,      ///< exact arithmetic, gP3M cutoff
  kPhantom,     ///< mixed-precision Phantom kernel (pp_kernel_phantom_sp:
                ///< float pair terms, double sums), gP3M cutoff;
                ///< GREEM_KERNEL=scalar makes it exact
  kNewton,      ///< no cutoff (pure-tree / direct baselines)
  kNewtonQuad,  ///< no cutoff, monopole+quadrupole node moments
                ///< (requires OctreeParams::with_quadrupole)
};

struct TraversalParams {
  double theta = 0.5;  ///< opening angle (cell size / distance)
  double rcut = std::numeric_limits<double>::infinity();  ///< short-range cutoff
  std::uint32_t ncrit = 64;  ///< max particles per group (<Ni> knob)
  double eps2 = 0.0;         ///< softening squared
  KernelKind kernel = KernelKind::kPhantom;
};

struct TraversalStats {
  std::uint64_t ngroups = 0;       ///< groups with at least one target
  std::uint64_t sum_ni = 0;        ///< total targets over groups
  std::uint64_t sum_nj = 0;        ///< total interaction-list length over groups
  std::uint64_t interactions = 0;  ///< sum Ni * Nj
  std::uint64_t nodes_visited = 0;
  /// Ghost-import attribution: opened leaf sources whose original index is
  /// >= n_targets (parallel ranks: imported ghosts), summed over groups.
  /// Always 0 when every particle is a target.
  std::uint64_t ghost_sources = 0;

  double mean_ni() const { return ngroups ? double(sum_ni) / double(ngroups) : 0; }
  double mean_nj() const { return ngroups ? double(sum_nj) / double(ngroups) : 0; }

  void merge(const TraversalStats& o);
};

/// Walk time and force time measured separately (Table I rows
/// "tree traversal" and "force calculation").
struct TraversalTimes {
  double traverse_s = 0;
  double force_s = 0;
};

/// Per-group cost attribution, one entry per group node in
/// tree.groups(ncrit) order -- the input the load-balance roadmap item
/// needs (which spatial regions cost what).  Every field except the two
/// timings is deterministic: independent of pool size and scheduling.
/// A group of ghosts alone is not walked: its record is zero but `node`.
struct GroupCost {
  std::uint32_t node = 0;  ///< group node index into tree.nodes()
  std::uint32_t ni = 0;    ///< target (local) particles in the group
  std::uint64_t nj = 0;    ///< interaction-list length (sources + multipoles)
  std::uint64_t interactions = 0;   ///< ni * nj
  std::uint64_t ghost_sources = 0;  ///< opened leaf sources that are ghosts
  double walk_s = 0;   ///< tree walk (interaction-list build) seconds
  double force_s = 0;  ///< kernel evaluation seconds
  Vec3 center{};       ///< group bounding cube, for spatial re-balancing
  double half = 0;
};

/// Compute accelerations of all tree particles, accumulated into `acc`
/// indexed by the *caller's original* particle indexing.
///
/// `image_offsets` lists periodic image shifts of the source tree to walk
/// (use {0,0,0} alone for open boundaries; the serial periodic TreePM
/// passes the 27 neighbor offsets and relies on rcut pruning).
TraversalStats tree_accelerations(const Octree& tree, const TraversalParams& params,
                                  std::span<Vec3> acc,
                                  std::span<const Vec3> image_offsets = {},
                                  TraversalTimes* times = nullptr);

/// As above but only accumulates accelerations for original indices
/// < n_targets (parallel ranks: locals precede ghosts).  Interaction
/// counts in the stats include only target particles.  When `group_costs`
/// is non-null it is resized to the group count and filled with one
/// per-group cost record (deterministic content modulo the timings).
TraversalStats tree_accelerations_targets(const Octree& tree, const TraversalParams& params,
                                          std::size_t n_targets, std::span<Vec3> acc,
                                          std::span<const Vec3> image_offsets = {},
                                          TraversalTimes* times = nullptr,
                                          std::vector<GroupCost>* group_costs = nullptr);

/// Short-range potentials (-G m h(2r/rcut)/r summed over the interaction
/// list) for all tree particles, accumulated into `pot` indexed by the
/// caller's original indexing.  Uses the same group walk as the force
/// path, so the cost is O(N <Nj>) instead of the naive O(N^2) pair sum --
/// the energy-diagnostic path for large N.
TraversalStats tree_potentials(const Octree& tree, const TraversalParams& params,
                               std::span<double> pot,
                               std::span<const Vec3> image_offsets = {});

/// Build the interaction list for one group node under `params` (exposed
/// for tests and the group-size benchmark).
void build_interaction_list(const Octree& tree, std::uint32_t group_node,
                            const TraversalParams& params, const Vec3& offset,
                            pp::InteractionList& list, TraversalStats& stats);

}  // namespace greem::tree
