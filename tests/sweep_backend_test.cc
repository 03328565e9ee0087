// The sweep-kernel name shim (core/sweep_kernel.h). The scalar fused
// Gauss–Seidel kernel is the only fixed-point sweep; SweepBackendKind and
// its helpers stay so callers that print the kernel's name keep working,
// and kAuto must resolve to "scalar".

#include <gtest/gtest.h>

#include "core/sweep_kernel.h"

namespace flos {
namespace {

TEST(SweepBackendTest, KindResolutionAndNames) {
  EXPECT_STREQ(SweepBackendKindName(SweepBackendKind::kScalar), "scalar");
  EXPECT_STREQ(SweepBackendKindName(SweepBackendKind::kAuto), "auto");
  EXPECT_EQ(ResolveSweepBackendKind(SweepBackendKind::kAuto),
            SweepBackendKind::kScalar);
  EXPECT_EQ(ResolveSweepBackendKind(SweepBackendKind::kScalar),
            SweepBackendKind::kScalar);
  EXPECT_STREQ(SweepBackendKindName(
                   ResolveSweepBackendKind(SweepBackendKind::kAuto)),
               "scalar");
}

}  // namespace
}  // namespace flos
