#pragma once
// Mesh-layout conversion between the 3-D particle domain decomposition and
// the 1-D FFT slab decomposition: the paper's relay mesh method (§II-B).
//
// Ranks are divided into groups of size >= the number of FFT processes
// (group 0, the "root group", contains the FFT processes).  The forward
// conversion runs an alltoallv inside each group (COMM_SMALLA2A), building
// partial slabs, followed by a reduction across groups (COMM_REDUCE) onto
// the root group.  The backward path mirrors it: bcast across groups, then
// an alltoallv inside each group.
//
// With one group (n_groups = 1, the default) the in-group alltoallv spans
// the world and the cross-group reduce and bcast are skipped: that is the
// straightforward direct conversion, in which each FFT process receives a
// message from every rank whose local mesh overlaps its slab (~p^(2/3)
// senders; ~4000 on the full K computer) and its endpoint congests.
//
// Slab plane z belongs to FFT rank f iff z is in split_range(n, n_fft, f);
// payloads are raw cell values in a canonical order both sides derive from
// the (allgathered) region geometries, so no coordinates travel.

#include <cstddef>
#include <vector>

#include "fft/slab_fft.hpp"
#include "pm/mesh.hpp"
#include "parx/comm.hpp"
#include "util/timer.hpp"

namespace greem::pm {

/// Set only by perfbench/, read by nothing; goes away with the next benchmark change.
enum class MeshConversion { kRelay };

struct ConverterParams {
  std::size_t n_mesh = 64;
  int n_fft = 0;  ///< 0 => min(world size, n_mesh)
  /// Set only by perfbench/, read by nothing; goes away with the next benchmark change.
  MeshConversion method = MeshConversion::kRelay;
  /// Relay groups, capped at world size / n_fft; 1 = the direct conversion.
  int n_groups = 1;
};

class MeshConverter {
 public:
  /// Collective over `world`.  Builds the FFT communicator (COMM_FFT),
  /// COMM_SMALLA2A and COMM_REDUCE via comm splits.
  MeshConverter(parx::Comm& world, ConverterParams params);

  const ConverterParams& params() const { return params_; }
  bool is_fft_rank() const;
  /// FFT communicator; valid only on FFT ranks.
  parx::Comm& fft_comm() { return comm_fft_; }

  /// z-planes of this rank's slab (empty unless an FFT rank).
  fft::Range my_slab() const;

  /// FFT rank owning global plane z.
  int plane_owner(std::size_t z) const;

  /// Collective: publish this rank's density/potential regions (they change
  /// whenever the domain decomposition moves boundaries).
  void set_regions(const CellRegion& density_region, const CellRegion& potential_region);

  /// Forward conversion: local density meshes -> complete density slabs on
  /// the FFT ranks (summing overlapping contributions).  Returns the slab
  /// (z-major, ny = nx = n_mesh); empty on non-FFT ranks.
  std::vector<double> gather_density(const LocalMesh& local_density, TimingBreakdown* t);

  /// Backward conversion: potential slabs on the FFT ranks -> each rank's
  /// local potential mesh over its potential region.
  LocalMesh scatter_potential(const std::vector<double>& slab_phi, TimingBreakdown* t);

  // ---- split (asynchronous) conversion --------------------------------
  // start_* packs and posts the conversion's all-to-all (sends go out,
  // receives are posted, nothing is drained), so the caller can overlap
  // independent work while payloads arrive; finish_* drains in arrival
  // order and unpacks in canonical rank order, so the result -- including
  // the floating-point accumulation order of overlapping slab
  // contributions -- is identical to the blocking conversion.
  // gather_density/scatter_potential are exactly start + finish.

  /// In-flight forward conversion posted by start_gather.
  struct PendingGather {
    parx::AlltoallvHandle<double> a2a;
    bool active = false;
  };

  /// In-flight backward conversion posted by start_scatter.
  struct PendingScatter {
    parx::AlltoallvHandle<double> a2a;
    bool active = false;
  };

  PendingGather start_gather(const LocalMesh& local_density, TimingBreakdown* t);
  std::vector<double> finish_gather(PendingGather& pg, TimingBreakdown* t);
  /// Runs the (small) cross-group bcast synchronously, then posts the
  /// in-group all-to-all.  Call on every rank; `slab_phi` is ignored on
  /// non-slab-holders.
  PendingScatter start_scatter(const std::vector<double>& slab_phi, TimingBreakdown* t);
  LocalMesh finish_scatter(PendingScatter& ps, TimingBreakdown* t);

 private:
  int group_of(int world_rank) const;
  int group_start(int g) const;

  /// My group's slice of a world-indexed region table.
  std::vector<CellRegion> group_slice(const std::vector<CellRegion>& world_regions) const;

  // Pack/unpack halves of the conversion over one communicator whose
  // ranks 0..n_fft-1 hold slabs; `regions` holds the region of each comm
  // member.  Unpack replays every sender's canonical order, accumulating
  // in sender rank order regardless of arrival order.
  std::vector<std::vector<double>> forward_pack(parx::Comm& comm,
                                                const std::vector<CellRegion>& regions,
                                                const LocalMesh& local_density);
  std::vector<double> forward_unpack(parx::Comm& comm, const std::vector<CellRegion>& regions,
                                     const std::vector<std::vector<double>>& recv);
  std::vector<std::vector<double>> backward_pack(parx::Comm& comm,
                                                 const std::vector<CellRegion>& regions,
                                                 const std::vector<double>& slab_phi);
  LocalMesh backward_unpack(parx::Comm& comm, const std::vector<CellRegion>& regions,
                            const std::vector<std::vector<double>>& recv);

  parx::Comm world_;
  ConverterParams params_;
  parx::Comm comm_fft_;      // FFT ranks only
  parx::Comm comm_smalla2a_; // my group
  parx::Comm comm_reduce_;   // same in-group position across groups
  int n_groups_eff_ = 1;
  int base_group_size_ = 0;

  CellRegion density_region_, potential_region_;
  std::vector<CellRegion> world_density_regions_;
  std::vector<CellRegion> world_potential_regions_;
};

}  // namespace greem::pm
