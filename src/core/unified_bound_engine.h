// Unified lower/upper bound engine for ALL five proximity measures.
//
// One engine, parameterized by measure traits (core/measure_traits.h),
// replaces the former per-family pair (PhpBoundEngine for the PHP-form
// fixed points, ThtBoundEngine for the THT horizon DP): one expansion
// contract, one convergence loop, one deadline path, one storage layout.
//
// Fixed-point family (PHP; EI/DHT/RWR by reduction, Theorems 2 and 6):
// maintains rigorous bounds on the fixed point of
//
//     r = alpha * T r + e_q,   r_q = 1,
//
// restricted to the visited set S, where T is the query-row-zeroed
// transition matrix.
//  * Lower bound: transitions leaving S are deleted (Theorem 3);
//    optionally a star-to-mesh self-loop p_ii = alpha * sum p_ij p_ji is
//    added (Lemma 3).
//  * Upper bound: transitions leaving S are redirected to a dummy node
//    with constant value r_d >= every unvisited proximity (Theorem 5); the
//    self-loop variant additionally splits the dummy mass per Lemma 4.
//  * Inner solve: warm-started fused Gauss–Seidel sweeps — each serial
//    sweep computes both bounds' dot products in ONE scan of the local CSR
//    and updates them in place (FusedSweep, core/sweep_kernel.h). The
//    solve stops on the first sweep whose movement falls below tau.
//
// Validity under inexact, in-place, REORDERED solves: the true proximity
// vector is a supersolution of the lower system and a subsolution of the
// upper system, and both operators are monotone. Applying a row update to
// ANY mixture of previous-sweep and already-updated values — all certified
// bounds — yields a certified bound again; newer values are tighter, so
// the result is also elementwise at least as tight as the Jacobi iterate
// after the same number of sweeps, REGARDLESS of the order rows are
// visited in. That licenses the in-place Gauss–Seidel order, and would
// equally license a worklist that picks rows by movement. Bounds are
// additionally clamped elementwise against their previous values, keeping
// them monotone across outer iterations (Section 5.2) even in floating
// point.
//
// Horizon-DP family (THT, Appendix 10.4): both bounds are exact L-step DP
// solves of modified systems on S — walks escaping S continue with
// min(remaining horizon, unvisited-hop lower bound) for the lower bound
// and with the full remaining horizon for the upper. The recursion needs
// the step-(t-1) values on the right-hand side, so the DP keeps a Jacobi
// double buffer of two pair-layout vectors, each step one FusedPairRowSweep
// from one into the other (in-place or reordered evaluation would mix
// horizons and is NOT valid here).
//
// Storage: bounds live interleaved — bounds_[2i] = lower_i,
// bounds_[2i+1] = upper_i, exactly 2 * |S| doubles — so each random column
// access in a sweep touches one cache line instead of two.

#ifndef FLOS_CORE_UNIFIED_BOUND_ENGINE_H_
#define FLOS_CORE_UNIFIED_BOUND_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/local_graph.h"
#include "core/measure_traits.h"
#include "core/node_index.h"
#include "core/sweep_kernel.h"

namespace flos {

/// Configuration of the unified bound engine.
struct UnifiedBoundOptions {
  /// Measure policy: bound family plus alpha/horizon (BoundTraitsFor).
  BoundTraits traits;
  /// Inner-iteration stopping threshold tau (paper Algorithm 7).
  double tolerance = 1e-5;
  /// Safety cap on inner iterations per update.
  uint32_t max_inner_iterations = 10000;
  /// Enables the star-to-mesh self-loop tightening (Section 5.3).
  bool self_loop_tightening = true;
  /// Tightens the dummy value beyond the paper's max-boundary-upper rule
  /// with the free alpha factor (unvisited nodes only neighbor boundary or
  /// unvisited nodes) and the alpha^hop-distance cap. Rigorous; see
  /// CaptureDummyFromBoundary. Off reproduces Algorithm 5 line 7 verbatim.
  bool alpha_dummy_tightening = true;
  /// Anytime hook: solves stop between sweeps once this instant passes
  /// (the clock is read after sweeps 1–4 and every fourth sweep after
  /// that, keeping the hot loop nearly free of clock reads). Every
  /// completed fixed-point sweep leaves certified bounds, so an interrupted
  /// solve is valid — just looser. A deadline mid-DP abandons the
  /// recompute WITHOUT committing (a partial horizon recursion is not a
  /// valid THT bound). `deadline_hit()` reports the interruption.
  /// Default: no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Bound state for the visited subgraph, all measures. One instance per
/// query WORKSPACE: construct it once over a LocalGraph and Reset() it for
/// each query after the LocalGraph has been Reset+Init'd — buffers are
/// reused across queries, so steady-state serving allocates nothing.
class UnifiedBoundEngine {
 public:
  /// `local` must outlive the engine. The LocalGraph may be empty (not yet
  /// Init'd) or already hold the query node.
  UnifiedBoundEngine(LocalGraph* local, const UnifiedBoundOptions& options);

  /// Returns the engine to its freshly-constructed state for the next
  /// query, with new options (the measure may change freely). Call after
  /// the LocalGraph was Reset+Init'd; keeps every buffer's capacity.
  void Reset(const UnifiedBoundOptions& options);

  /// Records the current boundary's maximum upper bound as the next dummy
  /// value (Algorithm 5 line 7), with the optional tightenings. Call
  /// BEFORE expanding, so the value refers to delta-S of the previous
  /// iteration. No-op for the horizon-DP family (no dummy redirect there).
  void CaptureDummyFromBoundary();

  /// Resizes state after the LocalGraph grew; new nodes start at the
  /// family's trivially valid interval ([0, 1] fixed point, [0, L] DP).
  void OnGrowth();

  /// Recomputes bounds for the current S. Fixed point: refreshes boundary
  /// coefficients, then runs the warm-started fused sweeps; returns the
  /// number of inner sweeps. Horizon DP: one fresh L-step recompute;
  /// returns 1.
  uint32_t UpdateBounds();

  /// Fixed point only: refreshes coefficients and runs only the lower
  /// system. Used by estimate-only consumers (the DNE baseline) that never
  /// need uppers.
  uint32_t UpdateLowerOnly();

  /// Finishing move once the LocalGraph is exhausted (no transitions leave
  /// S). Fixed point: runs the lower system to `final_tolerance` and
  /// collapses upper = lower (the deleted-transition system IS the exact
  /// system); if the deadline cuts the solve short the interval is NOT
  /// collapsed and both bounds stay certified. Horizon DP: one recompute —
  /// the DP is already exact once S is the component.
  uint32_t FinalizeExhausted(double final_tolerance);

  /// True iff the most recent solve stopped on the options deadline rather
  /// than on convergence. Reset by the next Reset() or solve call.
  bool deadline_hit() const { return deadline_hit_; }

  double lower(LocalId i) const { return bounds_[2 * static_cast<size_t>(i)]; }
  double upper(LocalId i) const {
    return bounds_[2 * static_cast<size_t>(i) + 1];
  }

  BoundFamily family() const { return options_.traits.family; }

  /// The Algorithm-5 dummy value (max boundary upper, non-increasing).
  double dummy_value() const { return dummy_mesh_; }

  /// The tightened dummy value that bounds only UNVISITED proximities
  /// (alpha factor, hop cap, frontier uppers). Valid for the plain
  /// redirect-everything-to-dummy construction, but NOT for the
  /// star-to-mesh one, whose redirected mesh edges also land on visited
  /// boundary nodes; the fused sweep therefore evaluates both
  /// constructions per node and keeps the smaller — both are monotone
  /// upper operators, so the pointwise minimum is too.
  double tight_dummy_value() const { return dummy_tight_; }

  /// A certified upper bound on EVERY unvisited node's value, including
  /// nodes reachable only through hidden (truncated-row) edges the frontier
  /// scan never sees. This is exactly dummy_tight_: its capture argument
  /// (max boundary upper with the alpha factor and hop cap) quantifies
  /// over all unvisited nodes, enumerated or not. Termination refinements
  /// that rely on enumerating delta-S-bar must fall back to this when the
  /// LocalGraph has truncated rows.
  double unvisited_value_bound() const { return dummy_tight_; }

  /// Certified upper bounds over the unvisited frontier delta-S-bar,
  /// computed from the boundary's uppers: for v adjacent to S,
  ///   r_v <= alpha * (sum_{u in N_v cap S} p_vu upper_u
  ///                   + (1 - in-mass) * r_d).
  /// Every unvisited node is bounded by `max_value`; nodes not adjacent to
  /// S by an extra alpha factor; `max_degree_weighted` maxes w_v * bound
  /// over delta-S-bar (the quantity FLoS_RWR's termination needs).
  /// Enumerates delta-S-bar from the boundary's neighbor lists on every
  /// call and remembers it until the next call (IsOutsideAdjacent).
  struct OutsideUppers {
    double max_value = 0;            ///< max over delta-S-bar of r-bar_v
    double max_degree_weighted = 0;  ///< max over delta-S-bar of w_v r-bar_v
    bool any = false;
  };
  OutsideUppers ComputeOutsideUppers();

  /// True iff `v` was in delta-S-bar (unvisited, adjacent to S, positive
  /// degree) at the last ComputeOutsideUppers call. FLoS_RWR's
  /// unknown-degree scan skips these nodes: their degrees are already
  /// covered by max_degree_weighted.
  bool IsOutsideAdjacent(NodeId v) const {
    return outside_index_.Contains(v);
  }

  /// Copies the live (lower, upper) pairs — 2 * Size() doubles — into
  /// `out`, for the warm-subgraph cache. Pair the vector with
  /// dummy_value()/tight_dummy_value() when snapshotting.
  void SaveBounds(std::vector<double>* out) const;

  /// Overwrites the live bounds with a previously saved vector (RestoreBounds
  /// is the warm-start entry: call after Reset() + the LocalGraph restore,
  /// so Size() matches the saved state). The dummies are restored too —
  /// they are non-increasing across a query, so resuming from them is
  /// sound.
  void RestoreBounds(const double* data, size_t nodes, double dummy_mesh,
                     double dummy_tight);

  /// Test-only: overwrites node i's stored bounds, bypassing every
  /// certification rule. Exists so tests/check_test.cc can prove the
  /// FLOS_AUDIT sandwich/monotonicity checks actually fire on corrupted
  /// state; never call it from library or application code.
  void InjectBoundsForTest(LocalId i, double lower_value, double upper_value) {
    bounds_[2 * static_cast<size_t>(i)] = lower_value;
    bounds_[2 * static_cast<size_t>(i) + 1] = upper_value;
  }

 private:
  /// Audit tier: aborts unless lower <= upper elementwise (within a
  /// one-ulp-scale slack for the fused fp evaluation). `where` names the
  /// call site in the failure message.
  void AuditBoundSandwich(const char* where) const;

  /// Audit tier: recomputes the clamped Jacobi iterate from `prev` with the
  /// scalar row operator and aborts if any live bound is looser than it —
  /// the tightness floor every Gauss–Seidel sweep must clear by the
  /// monotone-mixture argument.
  void AuditNoLooserThanJacobi(const std::vector<double>& prev,
                               bool lower_only) const;

  /// Recomputes the dirty boundary nodes' dummy and self-loop
  /// coefficients from LocalGraph::OutMass / LoopMass: O(1) per node, no
  /// neighbor scan, no degree probe.
  void RefreshBoundaryCoefficients();

  /// Audit tier: recomputes boundary node i's out and loop masses by
  /// scanning its neighbor list and probing every unvisited neighbor's
  /// degree, and aborts unless the maintained masses match within 1e-12.
  void AuditBoundaryMasses(LocalId i);

  /// The fused Gauss–Seidel solve (fixed point): one sweep per iteration
  /// updates both bounds (or only the lower when `lower_only`), in place,
  /// stopping on the first sweep whose largest elementwise movement drops
  /// below `tolerance`, or on the deadline (see UnifiedBoundOptions).
  uint32_t FusedSolve(double tolerance, bool lower_only);

  /// The horizon-DP recompute (THT): fresh L-step Jacobi double-buffer
  /// solve, committed through monotone clamps, abandoned uncommitted on
  /// deadline.
  void HorizonDpUpdate();

  FixedPointSweepArgs SweepArgs();

  LocalGraph* local_;
  UnifiedBoundOptions options_;
  /// Number of live nodes (== local_->Size() after OnGrowth).
  size_t nodes_ = 0;
  /// Interleaved (lower, upper) per LocalId: exactly 2 * nodes_ doubles.
  std::vector<double> bounds_;
  /// Coefficient of r_i itself (self-loop) in the mesh construction.
  std::vector<double> self_coeff_;
  /// Coefficient of r_d in the mesh construction (alpha^2 (out - loop)).
  std::vector<double> mesh_dummy_coeff_;
  /// Coefficient of r_d in the plain construction (alpha * out mass).
  std::vector<double> plain_dummy_coeff_;
  /// Coefficient of r_d for hidden (non-enumerable) row mass, multiplying
  /// dummy_mesh_ in BOTH constructions (see FixedPointSweepArgs). All-zero
  /// unless the accessor truncates adjacency (shard fringe rows).
  std::vector<double> hidden_coeff_;
  /// Horizon-DP Jacobi double buffer in the pair layout (work = step t-1,
  /// next = step t).
  std::vector<double> dp_work_;
  std::vector<double> dp_next_;
  /// ComputeOutsideUppers' per-call accumulator over delta-S-bar: the
  /// per-call-reset index maps a frontier node to its slot in outside_acc_.
  struct OutsideAcc {
    double degree;
    double mass;  ///< sum over visited neighbors u of p_vu
    double sum;   ///< sum over visited neighbors u of p_vu * upper_u
  };
  NodeMap<uint32_t> outside_index_;
  std::vector<OutsideAcc> outside_acc_;
  double dummy_mesh_ = 1.0;   ///< >= unvisited AND visited-boundary values
  double dummy_tight_ = 1.0;  ///< >= unvisited values only
  bool deadline_hit_ = false; ///< last solve stopped on the deadline
};

}  // namespace flos

#endif  // FLOS_CORE_UNIFIED_BOUND_ENGINE_H_
