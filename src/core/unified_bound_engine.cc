#include "core/unified_bound_engine.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace flos {

namespace {
// Slack for the audited sandwich invariant. The lower and upper systems
// are evaluated in one fused fp pass over certified inputs, so the exact
// relation lower <= upper can be violated only by accumulated rounding
// (~1e-16 per row term on values in [0, 1]); anything past this slack is
// a logic bug, not noise.
constexpr double kSandwichSlack = 1e-12;
}  // namespace

UnifiedBoundEngine::UnifiedBoundEngine(LocalGraph* local,
                                       const UnifiedBoundOptions& options)
    : local_(local) {
  GraphAccessor* accessor = local->accessor();
  outside_index_.Configure(accessor->NumNodes(), accessor->DenseIndexHint());
  Reset(options);
}

void UnifiedBoundEngine::Reset(const UnifiedBoundOptions& options) {
  options_ = options;
  deadline_hit_ = false;
  nodes_ = 0;
  bounds_.clear();
  self_coeff_.clear();
  mesh_dummy_coeff_.clear();
  plain_dummy_coeff_.clear();
  hidden_coeff_.clear();
  dummy_mesh_ = 1.0;
  dummy_tight_ = 1.0;
  OnGrowth();
}

void UnifiedBoundEngine::OnGrowth() {
  const uint32_t n = local_->Size();
  const size_t old_nodes = nodes_;
  nodes_ = n;
  bounds_.resize(2 * static_cast<size_t>(n));
  if (options_.traits.family == BoundFamily::kFixedPoint) {
    // New nodes: lower = 0, upper = 1 are valid PHP-form bounds (all
    // proximities lie in [0, 1]; non-query nodes are in fact <= alpha).
    for (size_t i = old_nodes; i < n; ++i) {
      bounds_[2 * i] = 0.0;
      bounds_[2 * i + 1] = 1.0;
    }
    for (LocalId q = 0; q < local_->query_count(); ++q) {
      bounds_[2 * static_cast<size_t>(q)] = 1.0;
      bounds_[2 * static_cast<size_t>(q) + 1] = 1.0;
    }
    self_coeff_.resize(n, 0.0);
    mesh_dummy_coeff_.resize(n, 0.0);
    plain_dummy_coeff_.resize(n, 0.0);
    hidden_coeff_.resize(n, 0.0);
  } else {
    // New nodes: a truncated hitting time lies in [0, L]; query nodes are
    // already home (0).
    const double horizon = static_cast<double>(options_.traits.horizon);
    for (size_t i = old_nodes; i < n; ++i) {
      bounds_[2 * i] = 0.0;
      bounds_[2 * i + 1] = horizon;
    }
    for (LocalId q = 0; q < local_->query_count(); ++q) {
      bounds_[2 * static_cast<size_t>(q)] = 0.0;
      bounds_[2 * static_cast<size_t>(q) + 1] = 0.0;
    }
  }
}

void UnifiedBoundEngine::CaptureDummyFromBoundary() {
  if (options_.traits.family != BoundFamily::kFixedPoint) return;
  // The paper's choice is r_d^t = max upper bound over delta-S (Algorithm 5
  // line 7). Two rigorous refinements tighten it further:
  //  * every unvisited node's neighbors are boundary or unvisited nodes, so
  //    its proximity is at most alpha * max_{delta-S} exact <= alpha * that
  //    maximum upper bound — a free alpha factor that cascades, iteration
  //    by iteration, into the boundary uppers themselves;
  //  * a PHP-form walk needs at least hop-distance steps to reach q, so an
  //    unvisited node at certified distance >= d has proximity <= alpha^d.
  // All three values dominate every unvisited proximity; take the minimum
  // (clamped non-increasing across iterations).
  double best = 0;
  bool any = false;
  for (LocalId i = 0; i < local_->Size(); ++i) {
    if (local_->IsBoundary(i)) {
      best = std::max(best, upper(i));
      any = true;
    }
  }
  if (!any) return;
  // Mesh dummy: must dominate visited boundary values too (Lemma 4's
  // redirected mesh edges land on them), so the paper's rule is the best
  // we can do.
  dummy_mesh_ = std::min(dummy_mesh_, best);
  // Tight dummy: dominates unvisited values only.
  double candidate = best;
  if (options_.alpha_dummy_tightening) {
    candidate = options_.traits.alpha * best;
    const double hops = std::min<double>(60, local_->UnvisitedHopLowerBound());
    candidate = std::min(candidate, std::pow(options_.traits.alpha, hops));
    // Per-frontier-node uppers dominate every unvisited proximity too (the
    // maximum over delta-S-bar bounds deeper nodes by self-consistency).
    // NOT valid on truncated rows: a hidden edge reaches unvisited nodes
    // that are in no enumerated frontier, so the self-consistency argument
    // has a hole — skip the refinement there (the alpha and hop-cap
    // candidates above survive: hidden-mass fringe stays boundary forever,
    // so unvisited nodes' visited neighbors are still all boundary).
    if (options_.traits.frontier_dummy && !local_->HasTruncatedRows()) {
      const OutsideUppers out = ComputeOutsideUppers();
      if (out.any) candidate = std::min(candidate, out.max_value);
    }
  }
  dummy_tight_ = std::min({dummy_tight_, dummy_mesh_, candidate});
  // The tight dummy bounds a subset of what the mesh dummy bounds, so it
  // can never exceed it; both are clamped non-increasing above.
  FLOS_DCHECK_LE(dummy_tight_, dummy_mesh_,
                 "tight dummy must not exceed mesh dummy");
}

void UnifiedBoundEngine::AuditBoundSandwich(const char* where) const {
  for (size_t i = 0; i < nodes_; ++i) {
    FLOS_CHECK_LE(bounds_[2 * i], bounds_[2 * i + 1] + kSandwichSlack, where);
  }
}

void UnifiedBoundEngine::AuditNoLooserThanJacobi(
    const std::vector<double>& prev, bool lower_only) const {
  // Jacobi-iterate floor: one scalar clamped row update evaluated entirely
  // on `prev` (the bounds as they stood before the sweep). The slack
  // absorbs fp differences between this reference evaluation and the
  // sweep's in-place one.
  constexpr double kJacobiSlack = 1e-9;
  const double* const p = prev.data();
  FusedPairRowSweep(*local_, p, [&](LocalId i, double s_lo, double s_hi) {
    if (local_->IsQueryLocal(i)) return;  // pinned
    const double* const pp = p + 2 * static_cast<size_t>(i);
    const double lo = pp[0];
    const double hi = pp[1];
    const double vl =
        std::max(options_.traits.alpha * s_lo + self_coeff_[i] * lo, lo);
    FLOS_CHECK_GE(bounds_[2 * static_cast<size_t>(i)], vl - kJacobiSlack,
                  "sweep left a lower bound looser than the Jacobi iterate");
    if (lower_only) return;
    const double hid = hidden_coeff_[i] * dummy_mesh_;
    double vu = options_.traits.alpha * s_hi +
                plain_dummy_coeff_[i] * dummy_tight_ + hid;
    if (options_.self_loop_tightening) {
      vu = std::min(vu, options_.traits.alpha * s_hi + self_coeff_[i] * hi +
                            mesh_dummy_coeff_[i] * dummy_mesh_ + hid);
    }
    vu = std::min(vu, hi);
    FLOS_CHECK_LE(bounds_[2 * static_cast<size_t>(i) + 1], vu + kJacobiSlack,
                  "sweep left an upper bound looser than the Jacobi iterate");
  });
}

UnifiedBoundEngine::OutsideUppers UnifiedBoundEngine::ComputeOutsideUppers() {
  // Accumulate, per unvisited frontier node v, the in-S transition mass
  // and its upper-bound-weighted sum, by walking the boundary's outside
  // edges. p_vu = w_uv / w_v, with w_v probed once per frontier node.
  outside_index_.Reset();
  outside_acc_.clear();
  for (LocalId u = 0; u < local_->Size(); ++u) {
    if (!local_->IsBoundary(u)) continue;
    const double ru = local_->IsQueryLocal(u) ? 1.0 : upper(u);
    for (const Neighbor& nb : local_->Neighbors(u)) {
      if (local_->Contains(nb.id)) continue;
      OutsideAcc* acc = nullptr;
      if (const uint32_t* slot = outside_index_.Find(nb.id)) {
        acc = &outside_acc_[*slot];
      } else {
        const double wv = local_->ProbeDegree(nb.id);
        if (wv <= 0) continue;
        outside_index_.Insert(nb.id,
                              static_cast<uint32_t>(outside_acc_.size()));
        acc = &outside_acc_.emplace_back(OutsideAcc{wv, 0, 0});
      }
      acc->mass += nb.weight / acc->degree;
      acc->sum += nb.weight / acc->degree * ru;
    }
  }
  OutsideUppers out;
  const double alpha = options_.traits.alpha;
  // The residual mass multiplies a dummy that must dominate v's neighbors
  // NOT found in S by the scan above. With complete rows those are all
  // unvisited (dummy_tight_). A truncated row can hide an edge from a
  // VISITED fringe node to v, so the residual then includes visited-
  // boundary values and needs dummy_mesh_ (hidden-mass fringe is boundary
  // forever, so dummy_mesh_ dominates it by its capture rule).
  const double residual_dummy =
      local_->HasTruncatedRows() ? dummy_mesh_ : dummy_tight_;
  for (const OutsideAcc& acc : outside_acc_) {
    const double residual = std::max(0.0, 1.0 - acc.mass);
    const double bound = alpha * (acc.sum + residual * residual_dummy);
    out.max_value = std::max(out.max_value, bound);
    out.max_degree_weighted =
        std::max(out.max_degree_weighted, acc.degree * bound);
    out.any = true;
  }
  return out;
}

void UnifiedBoundEngine::AuditBoundaryMasses(LocalId i) {
  // Ground truth by the direct definition: scan i's fetched list and probe
  // every unvisited neighbor's degree. The maintained masses come from
  // differences of rounded sums, so they agree to rounding, not bitwise.
  constexpr double kMassSlack = 1e-12;
  const double wi = local_->WeightedDegree(i);
  double out_mass = 0;
  double loop_mass = 0;
  for (const Neighbor& nb : local_->Neighbors(i)) {
    if (local_->Contains(nb.id)) continue;
    const double p_iv = nb.weight / wi;
    out_mass += p_iv;
    const double wv = local_->ProbeDegree(nb.id);
    if (wv > 0) loop_mass += p_iv * (nb.weight / wv);
  }
  FLOS_CHECK_LE(std::abs(local_->OutMass(i) - out_mass), kMassSlack,
                "maintained out mass diverged from a neighbor scan");
  FLOS_CHECK_LE(std::abs(local_->LoopMass(i) - loop_mass), kMassSlack,
                "maintained loop mass diverged from a neighbor scan");
}

void UnifiedBoundEngine::RefreshBoundaryCoefficients() {
  // Incremental: only nodes whose outside-neighbor set changed since the
  // last update (new nodes and neighbors of new nodes) need their
  // coefficients recomputed, each in O(1) from LocalGraph's maintained
  // masses.
  const double alpha = options_.traits.alpha;
  for (const LocalId i : local_->TakeDirtyNodes()) {
    self_coeff_[i] = 0;
    mesh_dummy_coeff_[i] = 0;
    plain_dummy_coeff_[i] = 0;
    hidden_coeff_[i] = 0;
    if (local_->IsQueryLocal(i) || !local_->IsBoundary(i)) continue;
    const double wi = local_->WeightedDegree(i);
    if (wi <= 0) continue;
    // Hidden (non-enumerable) edge mass keeps the plain single-alpha
    // redirect to dummy_mesh in both constructions; a node with hidden
    // mass is boundary forever, so this branch is never skipped for it.
    hidden_coeff_[i] = alpha * local_->HiddenMass(i) / wi;
    FLOS_AUDIT_SCOPE { AuditBoundaryMasses(i); }
    // Sum over VISIBLE unvisited neighbors of p_iv.
    const double out_mass = local_->OutMass(i);
    // Plain construction (Theorem 5): all outside mass to the dummy.
    plain_dummy_coeff_[i] = alpha * out_mass;
    if (options_.self_loop_tightening) {
      // Mesh construction (Lemmas 3/4): p_ii = alpha * loop_mass,
      // p_id = alpha * (out - loop). In the iteration r <- alpha T r + e
      // these appear with one more alpha factor.
      const double loop_mass = local_->LoopMass(i);
      self_coeff_[i] = alpha * alpha * loop_mass;
      mesh_dummy_coeff_[i] = alpha * alpha * (out_mass - loop_mass);
    }
  }
}

FixedPointSweepArgs UnifiedBoundEngine::SweepArgs() {
  FixedPointSweepArgs args;
  args.local = local_;
  args.bounds = bounds_.data();
  args.self_coeff = self_coeff_.data();
  args.mesh_dummy_coeff = mesh_dummy_coeff_.data();
  args.plain_dummy_coeff = plain_dummy_coeff_.data();
  args.hidden_coeff = hidden_coeff_.data();
  args.alpha = options_.traits.alpha;
  args.dummy_tight = dummy_tight_;
  args.dummy_mesh = dummy_mesh_;
  args.self_loop = options_.self_loop_tightening;
  return args;
}

uint32_t UnifiedBoundEngine::FusedSolve(double tolerance, bool lower_only) {
  const bool has_deadline =
      options_.deadline != std::chrono::steady_clock::time_point::max();
  const FixedPointSweepArgs args = SweepArgs();
  uint32_t iters = 0;
  deadline_hit_ = false;
  // Audit tier: snapshot the incoming bounds so every sweep can be checked
  // against them. The entry sandwich check catches state that was already
  // uncertified before this solve (e.g. injected corruption).
  std::vector<double> audit_prev;
  FLOS_AUDIT_SCOPE {
    AuditBoundSandwich("sandwich violated on entry to FusedSolve");
    audit_prev = bounds_;
  }
  while (iters < options_.max_inner_iterations) {
    // Every sweep returns its movement, so convergence is tested on every
    // sweep. The deadline clock is read after the first four sweeps (warm
    // starts converge within a sweep or two) and then every fourth, which
    // keeps long cold solves nearly free of clock reads.
    const bool read_clock = has_deadline && (iters < 4 || (iters & 3) == 3);
    const double delta = lower_only ? LowerSweep(args) : FusedSweep(args);
    ++iters;
    FLOS_AUDIT_SCOPE {
      // Certified bounds only ever tighten: the in-place updates clamp
      // against the previous value with std::max/std::min, so monotonicity
      // must hold EXACTLY, sweep by sweep — any loosening means a value
      // escaped the clamp and is no longer certified.
      for (size_t i = 0; i < nodes_; ++i) {
        FLOS_CHECK_GE(bounds_[2 * i], audit_prev[2 * i],
                      "lower bound loosened across a sweep");
        if (!lower_only) {
          FLOS_CHECK_LE(bounds_[2 * i + 1], audit_prev[2 * i + 1],
                        "upper bound loosened across a sweep");
        }
      }
      // Every Gauss–Seidel sweep must land at least as tight as one Jacobi
      // step from the pre-sweep state (the monotone-mixture floor).
      AuditNoLooserThanJacobi(audit_prev, lower_only);
      AuditBoundSandwich("sandwich violated after a fused sweep");
      audit_prev = bounds_;
    }
    if (delta < tolerance) break;
    // Anytime termination: each completed sweep is a certified bound state,
    // so stopping here leaves valid — merely looser — bounds.
    if (read_clock && std::chrono::steady_clock::now() >= options_.deadline) {
      deadline_hit_ = true;
      break;
    }
  }
  return iters;
}

void UnifiedBoundEngine::HorizonDpUpdate() {
  const uint32_t n = local_->Size();
  const int length = options_.traits.horizon;
  const bool has_deadline =
      options_.deadline != std::chrono::steady_clock::time_point::max();
  deadline_hit_ = false;
  dp_work_.assign(2 * static_cast<size_t>(n), 0.0);
  dp_next_.assign(2 * static_cast<size_t>(n), 0.0);

  // Escaped-mass continuations. Upper: an escaped walker can take at most
  // the full remaining horizon. Lower: an escaped walker sits on an
  // unvisited node, whose hop distance to q is at least
  // UnvisitedHopLowerBound(), so its remaining truncated hitting time is at
  // least min(horizon, that distance) — this is what lets the termination
  // test fire once the boundary has receded past the top-k's values.
  const double unvisited_hops =
      std::min<double>(length, local_->UnvisitedHopLowerBound());

  // The horizon recursion needs the step-(t-1) values on the right-hand
  // side, so the DP stays a Jacobi double buffer — but each step is ONE
  // fused scan of the local CSR computing both bound dot products, and the
  // out-of-S transition mass comes from the maintained row in-mass (no
  // per-update O(edges) rescans). Degree-0 nodes can never hit q; their
  // value saturates at L. Bit-exact evaluation is part of the DP's test
  // contract: each row sum adds the same products in the same order as
  // the reference recursion.
  for (int t = 1; t <= length; ++t) {
    // Anytime hook: the horizon recursion is only a valid THT bound once
    // all L steps ran, so an expired deadline abandons the recompute and
    // keeps the previous (smaller-S, still certified) bounds instead.
    if (has_deadline && t > 1 &&
        std::chrono::steady_clock::now() >= options_.deadline) {
      deadline_hit_ = true;
      return;
    }
    const double horizon = t - 1;  // max THT value at horizon t-1 (<= L)
    const double escaped_lo = std::min(horizon, unvisited_hops);
    FusedPairRowSweep(
        *local_, dp_work_.data(), [&](LocalId i, double s_lo, double s_hi) {
          double* const pi = dp_next_.data() + 2 * static_cast<size_t>(i);
          if (local_->IsQueryLocal(i)) {
            pi[0] = 0;
            pi[1] = 0;
            return;
          }
          const double wdi = local_->WeightedDegree(i);
          if (wdi <= 0) {
            pi[0] = length;
            pi[1] = length;
            return;
          }
          const double out = std::max(0.0, 1.0 - local_->RowInMass(i));
          // Hidden (truncated-row) escape mass may land on a VISITED fringe
          // node arbitrarily close to q, so the unvisited-hop continuation
          // does not apply to it: it contributes 0 to the lower. The
          // upper's full-horizon continuation covers it unchanged.
          const double hid = std::min(out, local_->HiddenMass(i) / wdi);
          pi[0] = 1.0 + s_lo + (out - hid) * escaped_lo;
          pi[1] = 1.0 + s_hi + out * horizon;
        });
    dp_work_.swap(dp_next_);
    FLOS_AUDIT_SCOPE {
      // Every DP step must preserve the sandwich: the escaped-mass
      // continuations satisfy escaped_lo <= horizon and the fused dot
      // products are computed over lo <= hi inputs with non-negative
      // weights, so lower <= upper holds exactly, step by step.
      for (size_t i = 0; i < n; ++i) {
        FLOS_CHECK_LE(dp_work_[2 * i], dp_work_[2 * i + 1],
                      "THT DP step broke the sandwich");
      }
    }
  }

  // Monotone clamps: previous bounds stay valid as S only grows.
  for (LocalId i = 0; i < n; ++i) {
    double* const pi = bounds_.data() + 2 * static_cast<size_t>(i);
    const double prev_lo = pi[0];
    const double prev_hi = pi[1];
    pi[0] = std::max(prev_lo, dp_work_[2 * static_cast<size_t>(i)]);
    pi[1] = std::min(prev_hi, dp_work_[2 * static_cast<size_t>(i) + 1]);
    // The clamps make cross-update monotonicity exact. The clamped
    // interval intersects two independently-rounded certified intervals,
    // so the non-emptiness check allows rounding-scale slack (values are
    // O(length), per-step errors are O(1e-15)).
    FLOS_AUDIT_GE(pi[0], prev_lo, "THT lower bound loosened");
    FLOS_AUDIT_LE(pi[1], prev_hi, "THT upper bound loosened");
    FLOS_AUDIT_LE(pi[0], pi[1] + 1e-9 * length,
                  "THT bounds crossed after clamp");
  }
}

uint32_t UnifiedBoundEngine::UpdateBounds() {
  if (options_.traits.family == BoundFamily::kHorizonDp) {
    HorizonDpUpdate();
    return 1;
  }
  RefreshBoundaryCoefficients();
  return FusedSolve(options_.tolerance, /*lower_only=*/false);
}

uint32_t UnifiedBoundEngine::UpdateLowerOnly() {
  FLOS_DCHECK(options_.traits.family == BoundFamily::kFixedPoint,
              "UpdateLowerOnly is a fixed-point-only operation");
  RefreshBoundaryCoefficients();
  return FusedSolve(options_.tolerance, /*lower_only=*/true);
}

uint32_t UnifiedBoundEngine::FinalizeExhausted(double final_tolerance) {
  if (options_.traits.family == BoundFamily::kHorizonDp) {
    // The DP is already exact once S is the whole component.
    HorizonDpUpdate();
    return 1;
  }
  // With S exhausted there is no boundary: the deleted-transition system is
  // the exact system. Solve it tightly and collapse the interval.
  RefreshBoundaryCoefficients();
  const uint32_t iters = FusedSolve(final_tolerance, /*lower_only=*/true);
  // A deadline-interrupted solve has not reached the exact fixed point yet;
  // collapsing would turn a valid lower bound into an invalid upper one.
  if (!deadline_hit_) {
    for (size_t i = 0; i < nodes_; ++i) bounds_[2 * i + 1] = bounds_[2 * i];
  }
  return iters;
}

void UnifiedBoundEngine::SaveBounds(std::vector<double>* out) const {
  out->assign(bounds_.begin(),
              bounds_.begin() + static_cast<ptrdiff_t>(2 * nodes_));
}

void UnifiedBoundEngine::RestoreBounds(const double* data, size_t nodes,
                                       double dummy_mesh, double dummy_tight) {
  FLOS_CHECK_EQ(nodes, nodes_,
                "RestoreBounds size must match the restored local graph");
  std::copy_n(data, 2 * nodes, bounds_.data());
  dummy_mesh_ = dummy_mesh;
  dummy_tight_ = dummy_tight;
  FLOS_AUDIT_SCOPE {
    AuditBoundSandwich("restored bounds violate the sandwich");
  }
}

}  // namespace flos
