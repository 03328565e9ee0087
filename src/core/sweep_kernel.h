// Shared row-sweep kernels over the flat SoA local CSR (core/local_graph.h).
//
// Both bound engines — the PHP-form fixed-point engine and the THT
// finite-horizon DP — spend their inner loops computing, per visited node
// i, dot products of row i's transition probabilities against one or two
// dense value vectors. These templates are that loop, written once:
//
//  * one scan of row i produces BOTH dot products (the lower and upper
//    systems share the identical sum_j p_ij * x_j structure), halving the
//    row-index traffic of separate lower/upper passes;
//  * the next row's index and weight slabs are software-prefetched one
//    row ahead, so a sweep streams the two arena arrays;
//  * what happens with the dot products (Gauss–Seidel in-place update,
//    Jacobi double-buffer DP step, convergence bookkeeping) is the
//    caller's `body`, inlined at the call site.
//
// In-place (Gauss–Seidel) use is sound for the monotone bound operators:
// if every input value is a certified bound, any mixture of old and
// already-updated values still is, so the body may write through the same
// vectors it reads (see core/unified_bound_engine.h for the full argument).

#ifndef FLOS_CORE_SWEEP_KERNEL_H_
#define FLOS_CORE_SWEEP_KERNEL_H_

#include <cstdint>
#include <vector>

#include "core/local_graph.h"
#include "util/check.h"

namespace flos {

class ThreadPool;

/// One fused sweep: body(i, s_lo, s_hi) with s_lo = sum_j p_ij lo[j],
/// s_hi = sum_j p_ij hi[j], for i = 0..Size()-1 in visit order. `lo`/`hi`
/// may alias vectors the body writes (Gauss–Seidel).
template <typename Body>
inline void FusedRowSweep(const LocalGraph& local, const double* lo,
                          const double* hi, Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s_lo = 0;
    double s_hi = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      const double p = row.weight[e];
      const LocalId j = row.idx[e];
      // Audit tier only: a column index past |S| or a negative transition
      // probability means the local CSR itself is corrupt, and every bound
      // computed from it is uncertified.
      FLOS_AUDIT(j < n, "local CSR column index out of range");
      FLOS_AUDIT(p >= 0.0, "negative transition probability in local CSR");
      s_lo += p * lo[j];
      s_hi += p * hi[j];
    }
    body(i, s_lo, s_hi);
  }
}

/// Single-vector variant: body(i, s) with s = sum_j p_ij x[j]. Used by
/// lower-only consumers (UpdateLowerOnly, FinalizeExhausted).
template <typename Body>
inline void RowSweep(const LocalGraph& local, const double* x, Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      FLOS_AUDIT(row.idx[e] < n, "local CSR column index out of range");
      s += row.weight[e] * x[row.idx[e]];
    }
    body(i, s);
  }
}

/// Pair-layout fused sweep: `bounds` interleaves (lower, upper) per node —
/// bounds[2i] = lower_i, bounds[2i+1] = upper_i — so each random column
/// access touches ONE cache line instead of two. body(i, s_lo, s_hi) as in
/// FusedRowSweep; the body may write back through `bounds` (Gauss–Seidel).
template <typename Body>
inline void FusedPairRowSweep(const LocalGraph& local, const double* bounds,
                              Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s_lo = 0;
    double s_hi = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      const double p = row.weight[e];
      const LocalId j = row.idx[e];
      FLOS_AUDIT(j < n, "local CSR column index out of range");
      FLOS_AUDIT(p >= 0.0, "negative transition probability in local CSR");
      const double* const pj = bounds + 2 * static_cast<size_t>(j);
      s_lo += p * pj[0];
      s_hi += p * pj[1];
    }
    body(i, s_lo, s_hi);
  }
}

// ---------------------------------------------------------------------------
// FixedPointSweeper: the fixed-point inner sweep.
//
// One whole fused Gauss–Seidel sweep (both bounds, or the lower system
// alone) over the pair-layout bound vector, rows in visit order, with the
// engine's monotone clamps applied per row; it returns the largest
// elementwise movement. Convergence policy, deadline checks, audit
// snapshots and coefficient maintenance stay in the engine — this is
// purely the O(edges(S)) hot loop. Each row must still tighten
// monotonically (the clamps are part of the contract, not an
// optimization).
//
// The THT finite-horizon DP does not run here: its Jacobi double buffer
// must be evaluated bit-exactly per horizon step (tests pin the DP against
// a reference recursion with exact equality), so it runs FusedRowSweep.

/// Kept so callers that print the sweep kernel's name keep compiling: the
/// scalar fused Gauss–Seidel kernel is the only one, and kAuto resolves
/// to it.
enum class SweepBackendKind { kAuto, kScalar };

/// Resolves kAuto to kScalar, the only kernel.
inline SweepBackendKind ResolveSweepBackendKind(SweepBackendKind /*kind*/) {
  return SweepBackendKind::kScalar;
}

/// Human-readable kind name ("auto", "scalar").
inline const char* SweepBackendKindName(SweepBackendKind kind) {
  return kind == SweepBackendKind::kAuto ? "auto" : "scalar";
}

/// Inputs of one fixed-point sweep. Arrays are indexed by LocalId and sized
/// to local->Size(); `bounds` is the interleaved (lower, upper) vector.
struct FixedPointSweepArgs {
  const LocalGraph* local = nullptr;
  double* bounds = nullptr;
  const double* self_coeff = nullptr;
  const double* mesh_dummy_coeff = nullptr;
  const double* plain_dummy_coeff = nullptr;
  /// Coefficient of r_d for each row's HIDDEN mass (alpha * hidden / w_i;
  /// all-zero on complete-adjacency accessors). Hidden edges may land on
  /// VISITED boundary nodes, so this multiplies dummy_mesh — never
  /// dummy_tight — and, lacking known return edges, it keeps the plain
  /// single-alpha redirect in BOTH upper constructions.
  const double* hidden_coeff = nullptr;
  double alpha = 0.5;
  double dummy_tight = 1.0;
  double dummy_mesh = 1.0;
  /// Star-to-mesh construction enabled (self_coeff/mesh_dummy_coeff live).
  bool self_loop = true;

  // -------------------------------------------------------------------------
  // Intra-sweep parallelism (block-Jacobi-across / Gauss–Seidel-within).
  //
  // When `pool` is non-null and `chunks > 1`, the sweeper partitions the
  // non-query rows into `chunks` contiguous LocalId ranges (balanced by row
  // entry counts) and runs them concurrently: `chunks - 1` ranges on the
  // pool's workers, one on the calling thread. Within its range a chunk
  // still updates in place (Gauss–Seidel: reads of OWN-range columns see
  // this sweep's already-committed values), but every read of ANOTHER
  // chunk's column comes from `snapshot` — an immutable copy of the bounds
  // the caller takes immediately before each sweep. Soundness is the
  // monotone-mixture argument (see core/unified_bound_engine.h): snapshot
  // values are the previous sweep's certified bounds, own-range values are
  // newer certified bounds, and any mixture fed to the monotone row
  // operators yields certified bounds again that are elementwise no looser
  // than the Jacobi iterate from the snapshot. The partition is a pure
  // function of the CSR structure and `chunks`, and cross-chunk reads never
  // touch live data, so the result is DETERMINISTIC regardless of thread
  // scheduling — and race-free: each chunk writes only its own bound range
  // and delta slot.
  //
  // Layout contract: `snapshot` is a copy of the live pairs [0, 2n) (the
  // engine keeps it at `bounds + 2 * local->Size()`, sizing its bound
  // vector to 4n when a pool is attached).
  ThreadPool* pool = nullptr;
  uint32_t chunks = 1;
  const double* snapshot = nullptr;
};

/// The scalar fused Gauss–Seidel sweep kernel, serial or chunked-parallel.
/// Thread-compatible; one instance per engine (it caches the parallel row
/// partition of the local CSR).
class FixedPointSweeper {
 public:
  /// The local CSR's structure or weights changed (growth); the cached
  /// parallel partition must be rebuilt before the next parallel sweep.
  void InvalidateStructure() { partition_chunks_ = 0; }

  /// One fused Gauss–Seidel sweep updating both bounds in place. Returns
  /// the largest elementwise movement (max over lower raises and upper
  /// drops).
  double FusedSweep(const FixedPointSweepArgs& args);

  /// One lower-only sweep (UpdateLowerOnly / FinalizeExhausted).
  double LowerSweep(const FixedPointSweepArgs& args);

 private:
  /// Cache-line-padded per-chunk delta slot (no false sharing on commit).
  struct alignas(64) PaddedDelta {
    double value = 0;
  };

  bool UseParallel(const FixedPointSweepArgs& args) const;

  /// Cuts the non-query rows [query_count, n) into `chunks` contiguous
  /// ranges with roughly equal entry counts. Recomputed when the structure
  /// or the requested chunk count changes.
  void BuildPartition(const LocalGraph& local, uint32_t chunks);

  template <bool lower_only>
  double ParallelSweep(const FixedPointSweepArgs& args);

  /// One chunk's Gauss–Seidel pass over rows [begin, end): own-range
  /// columns read the live (already updated this sweep) bounds, every
  /// other column reads the immutable pre-sweep snapshot.
  template <bool lower_only>
  void SweepChunk(const FixedPointSweepArgs& args, LocalId begin, LocalId end,
                  double* delta_out) const;

  std::vector<LocalId> chunk_begin_;  ///< partition cuts (chunks + 1)
  uint32_t partition_chunks_ = 0;     ///< 0 = partition is stale
  std::vector<PaddedDelta> deltas_;
};

}  // namespace flos

#endif  // FLOS_CORE_SWEEP_KERNEL_H_
