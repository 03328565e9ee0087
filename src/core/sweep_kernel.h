// The row-sweep kernel over the flat SoA local CSR (core/local_graph.h).
//
// Both bound families — the PHP-form fixed-point engine and the THT
// finite-horizon DP — spend their inner loops computing, per visited node
// i, dot products of row i's transition probabilities against the lower
// and upper bound vectors. Both keep those vectors interleaved —
// bounds[2i] = lower_i, bounds[2i+1] = upper_i — so FusedPairRowSweep is
// that loop, written once:
//
//  * one scan of row i produces BOTH dot products (the lower and upper
//    systems share the identical sum_j p_ij * x_j structure), halving the
//    row-index traffic of separate lower/upper passes, and each random
//    column access touches one cache line instead of two;
//  * the next row's index and weight slabs are software-prefetched one
//    row ahead, so a sweep streams the two arena arrays;
//  * what happens with the dot products (Gauss–Seidel in-place update,
//    Jacobi double-buffer DP step, convergence bookkeeping) is the
//    caller's `body`, inlined at the call site.
//
// In-place (Gauss–Seidel) use is sound for the monotone bound operators:
// if every input value is a certified bound, any mixture of old and
// already-updated values still is, so the body may write through the same
// vector it reads (see core/unified_bound_engine.h for the full argument).
//
// Sweeps are serial: a query's visited set is far too small for
// intra-query parallelism to pay (DESIGN.md, "Parallel block sweeps:
// measured and removed").

#ifndef FLOS_CORE_SWEEP_KERNEL_H_
#define FLOS_CORE_SWEEP_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "core/local_graph.h"
#include "util/check.h"

namespace flos {

/// One fused sweep over the pair layout: body(i, s_lo, s_hi) with
/// s_lo = sum_j p_ij bounds[2j], s_hi = sum_j p_ij bounds[2j+1], for
/// i = 0..Size()-1 in visit order. The body may write back through
/// `bounds` (Gauss–Seidel).
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
      // Audit tier only: a column index past |S| or a negative transition
      // probability means the local CSR itself is corrupt, and every bound
      // computed from it is uncertified.
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
// The fixed-point inner sweep.
//
// One whole fused Gauss–Seidel sweep (both bounds, or the lower system
// alone) over the pair-layout bound vector, rows in visit order, with the
// engine's monotone clamps applied per row; it returns the largest
// elementwise movement. Convergence policy, deadline checks, audit
// snapshots and coefficient maintenance stay in the engine — this is
// purely the O(edges(S)) hot loop. Each row must still tighten
// monotonically (the clamps are part of the contract, not an
// optimization).

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
};

/// One fused Gauss–Seidel sweep updating both bounds in place. Returns the
/// largest elementwise movement (max over lower raises and upper drops).
double FusedSweep(const FixedPointSweepArgs& args);

/// One lower-only sweep (UpdateLowerOnly / FinalizeExhausted).
double LowerSweep(const FixedPointSweepArgs& args);

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

}  // namespace flos

#endif  // FLOS_CORE_SWEEP_KERNEL_H_
