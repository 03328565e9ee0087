// Expansion policies: which boundary node to expand next.
//
// FLoS's exactness does not depend on the expansion schedule — the bounds
// are rigorous for EVERY visited set S, so any policy terminates with the
// same certified top-k; policies differ only in how many nodes they visit
// before the bounds separate the k-th from the (k+1)-th candidate. That
// makes the scheduler a clean seam: a policy scores each boundary node
// from its certified rank interval, and the engine expands in descending
// score order.
//
// The order is total: priority descending, then local id (visit order)
// ascending. Equal priorities are common on symmetric neighborhoods, and
// the tie-break keeps the schedule, and so every visit count, independent
// of how the engine selects from the boundary (it pops a heap, expanding
// only the few nodes an outer iteration needs).
//
//  * BestFirst — the paper's Algorithm 3: priority = the interval
//    midpoint's rank (negated for minimize measures). Expands where the
//    answer probably is.
//  * BoundGapGreedy — priority = expected tightening of the contested
//    gap: a node whose interval straddles the current k-th guaranteed
//    rank is what blocks certification, and its interval width is an
//    upper bound on how much one expansion can move the decision; nodes
//    whose intervals sit clear of the threshold get their distance
//    subtracted. Expands where the PROOF is stuck.
//
// Policies are stateless; the engine passes the per-query context (k,
// rank direction, last certification threshold) each time.

#ifndef FLOS_CORE_EXPANSION_POLICY_H_
#define FLOS_CORE_EXPANSION_POLICY_H_

namespace flos {

/// Which expansion policy the FLoS driver uses.
enum class ExpansionPolicyKind { kBestFirst, kBoundGapGreedy };

/// Per-query facts a policy may use when scoring a boundary node.
struct ExpansionContext {
  /// Rank direction: true when smaller rank values are better (THT).
  bool minimize = false;
  /// The certification threshold of the most recent termination check —
  /// the k-th best guaranteed rank value — when one exists. Before the
  /// first check (or while fewer than k interior nodes exist) there is no
  /// threshold.
  bool has_threshold = false;
  double threshold = 0;
};

/// A boundary-node scoring policy. Stateless and thread-compatible; the
/// returned priority is "larger = expand earlier".
class ExpansionPolicy {
 public:
  virtual ~ExpansionPolicy() = default;
  virtual const char* name() const = 0;
  /// Scores a boundary node from its certified rank interval
  /// [rank_lower, rank_upper] (already in rank space: degree-weighted for
  /// RWR, raw values otherwise).
  virtual double Priority(double rank_lower, double rank_upper,
                          const ExpansionContext& context) const = 0;
};

/// Returns the process-wide instance for `kind` (policies are stateless).
const ExpansionPolicy* GetExpansionPolicy(ExpansionPolicyKind kind);

/// Human-readable kind name ("best_first", "bound_gap_greedy").
const char* ExpansionPolicyKindName(ExpansionPolicyKind kind);

}  // namespace flos

#endif  // FLOS_CORE_EXPANSION_POLICY_H_
