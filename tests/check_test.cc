// Tests for the invariant-audit layer (util/check.h): failure message
// format and file:line reporting (death tests), the zero-evaluation
// guarantee of disabled FLOS_DCHECK/FLOS_AUDIT tiers, and proof that the
// bound-sandwich and boundary-mass audits actually fire on deliberately
// corrupted state.

#include "util/check.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/local_graph.h"
#include "core/unified_bound_engine.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using ::flos::testing::PaperExampleGraph;

// ---------------------------------------------------------------------------
// FLOS_CHECK failure format. The message must carry the macro name, the
// source location of THIS file, and the failed condition text, so a crash
// in production logs is actionable without a debugger.

TEST(FlosCheckDeathTest, FailureMessageCarriesFileLineAndCondition) {
  const int x = -3;
  EXPECT_DEATH(FLOS_CHECK(x >= 0),
               "FLOS_CHECK failed at .*check_test\\.cc:[0-9]+: x >= 0");
}

TEST(FlosCheckDeathTest, OptionalMessageIsAppended) {
  const bool certified = false;
  EXPECT_DEATH(FLOS_CHECK(certified, "bound lost certification"),
               "FLOS_CHECK failed at .*check_test\\.cc:[0-9]+: "
               "certified: bound lost certification");
}

TEST(FlosCheckDeathTest, ComparisonChecksPrintBothOperands) {
  const double lower = 0.75;
  const double upper = 0.25;
  EXPECT_DEATH(FLOS_CHECK_LE(lower, upper),
               "FLOS_CHECK failed at .*check_test\\.cc:[0-9]+: "
               "lower <= upper \\(0.75 vs 0.25\\)");
}

TEST(FlosCheckTest, PassingChecksAreSilent) {
  FLOS_CHECK(1 + 1 == 2);
  FLOS_CHECK_EQ(4u, 4u);
  FLOS_CHECK_LE(0.1, 0.2, "never printed");
  FLOS_CHECK_GE(7, 7);
  FLOS_CHECK_LT(1, 2);
}

// ---------------------------------------------------------------------------
// Zero-evaluation guarantee: disabled tiers must TYPE-CHECK their operands
// but never evaluate them. Each operand call bumps a counter; the expected
// count depends only on whether the tier is compiled in.

int g_evaluations = 0;

bool CountingPredicate() {
  ++g_evaluations;
  return true;
}

int CountingValue() {
  ++g_evaluations;
  return 1;
}

TEST(FlosCheckTest, CheckAlwaysEvaluatesItsOperandExactlyOnce) {
  g_evaluations = 0;
  FLOS_CHECK(CountingPredicate());
  EXPECT_EQ(g_evaluations, 1);
  g_evaluations = 0;
  FLOS_CHECK_EQ(CountingValue(), 1);
  EXPECT_EQ(g_evaluations, 1);
}

TEST(FlosCheckTest, DcheckOperandsEvaluateOnlyWhenTierIsCompiledIn) {
  g_evaluations = 0;
  FLOS_DCHECK(CountingPredicate());
  FLOS_DCHECK_EQ(CountingValue(), 1);
  FLOS_DCHECK_LE(CountingValue(), 2);
  // In Release (NDEBUG, no audit) the operands must be evaluated ZERO
  // times — the macros reduce to a constant-folded no-op.
  EXPECT_EQ(g_evaluations, kDcheckEnabled ? 3 : 0);
}

TEST(FlosCheckTest, AuditOperandsEvaluateOnlyUnderTheAuditPreset) {
  g_evaluations = 0;
  FLOS_AUDIT(CountingPredicate());
  FLOS_AUDIT_EQ(CountingValue(), 1);
  FLOS_AUDIT_LE(CountingValue(), 2);
  FLOS_AUDIT_GE(CountingValue(), 0);
  EXPECT_EQ(g_evaluations, kAuditEnabled ? 4 : 0);
}

TEST(FlosCheckTest, AuditScopeRunsOnlyUnderTheAuditPreset) {
  int runs = 0;
  FLOS_AUDIT_SCOPE { ++runs; }
  EXPECT_EQ(runs, kAuditEnabled ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Injected corruption: the sandwich audit in UnifiedBoundEngine::FusedSolve
// must catch a bound that was deliberately broken. This is the end-to-end
// proof that the audit layer guards the exactness invariant, not just
// that the macros abort.

struct CorruptionHarness {
  CorruptionHarness() : graph(PaperExampleGraph()), accessor(&graph) {
    local = std::make_unique<LocalGraph>(&accessor);
    EXPECT_TRUE(local->Init(NodeId{0}).ok());
    UnifiedBoundOptions be;
    be.traits.alpha = 0.5;
    engine = std::make_unique<UnifiedBoundEngine>(local.get(), be);
    // Grow S a little so there are real interior/boundary nodes.
    EXPECT_TRUE(local->Expand(0).ok());
    engine->OnGrowth();
    engine->UpdateBounds();
  }

  Graph graph;
  InMemoryAccessor accessor;
  std::unique_ptr<LocalGraph> local;
  std::unique_ptr<UnifiedBoundEngine> engine;
};

#if FLOS_AUDIT_ENABLED

TEST(BoundAuditDeathTest, InjectedSandwichViolationAborts) {
  CorruptionHarness h;
  // lower > upper on a non-query node: certifiably impossible state.
  h.engine->InjectBoundsForTest(1, /*lower_value=*/0.9, /*upper_value=*/0.1);
  EXPECT_DEATH(h.engine->UpdateBounds(),
               "sandwich violated on entry to FusedSolve");
}

TEST(BoundAuditDeathTest, CorruptionIsCaughtOnLaterSolvesToo) {
  CorruptionHarness h;
  // Corrupt, then continue the search as the main loop would: the audit
  // guards every solve, not just the one after the injection.
  h.engine->InjectBoundsForTest(2, /*lower_value=*/1.5, /*upper_value=*/0.0);
  EXPECT_DEATH(
      {
        for (LocalId i = 0; i < h.local->Size(); ++i) {
          if (!h.local->IsBoundary(i)) continue;
          (void)h.local->Expand(i);
          h.engine->OnGrowth();
          h.engine->UpdateBounds();
        }
      },
      "sandwich violated");
}

TEST(BoundAuditDeathTest, CorruptedBoundaryMassAborts) {
  CorruptionHarness h;
  // Corrupt one boundary node's maintained two-step return mass through a
  // snapshot round trip (RestoreSnapshot trusts the snapshot's arrays);
  // the next coefficient refresh rechecks it against a neighbor scan.
  LocalGraphSnapshot snap;
  h.local->SaveSnapshot(&snap);
  LocalId victim = 1;
  while (!h.local->IsBoundary(victim)) ++victim;
  snap.two_step_return[victim] += 0.25;
  h.local->Reset();
  h.local->RestoreSnapshot(snap);
  UnifiedBoundOptions be;
  be.traits.alpha = 0.5;
  h.engine->Reset(be);
  EXPECT_DEATH(h.engine->UpdateBounds(),
               "maintained loop mass diverged from a neighbor scan");
}

#else

TEST(BoundAuditTest, CorruptionGoesUndetectedWithoutTheAuditTier) {
  // Documents the cost contract: without FLOS_ENABLE_AUDIT the audit
  // sites compile to nothing, so the same corruption is NOT caught (and
  // the hot path pays nothing). The `audit` preset exists precisely to
  // run the suite with the checks on.
  CorruptionHarness h;
  h.engine->InjectBoundsForTest(1, /*lower_value=*/0.9, /*upper_value=*/0.1);
  h.engine->UpdateBounds();  // must not abort
  SUCCEED();
}

#endif  // FLOS_AUDIT_ENABLED

}  // namespace
}  // namespace flos
