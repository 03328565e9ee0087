// The fixed-point sweep kernel (core/sweep_kernel.h): one fused
// Gauss–Seidel pass over the pair-layout bounds, rows in visit order, with
// the monotone clamps applied per row.

#include "core/sweep_kernel.h"

#include <algorithm>

namespace flos {

double FusedSweep(const FixedPointSweepArgs& args) {
  double delta = 0;
  double* const b = args.bounds;
  const LocalGraph& local = *args.local;
  FusedPairRowSweep(local, b, [&](LocalId i, double s_lo, double s_hi) {
    if (local.IsQueryLocal(i)) return;  // pinned
    double* const pi = b + 2 * static_cast<size_t>(i);
    const double lo = pi[0];
    const double hi = pi[1];
    const double vl =
        std::max(args.alpha * s_lo + args.self_coeff[i] * lo, lo);
    const double hid = args.hidden_coeff[i] * args.dummy_mesh;
    double vu = args.alpha * s_hi +
                args.plain_dummy_coeff[i] * args.dummy_tight + hid;
    if (args.self_loop) {
      vu = std::min(vu, args.alpha * s_hi + args.self_coeff[i] * hi +
                            args.mesh_dummy_coeff[i] * args.dummy_mesh + hid);
    }
    vu = std::min(vu, hi);
    delta = std::max(delta, std::max(vl - lo, hi - vu));
    pi[0] = vl;  // in place: Gauss–Seidel
    pi[1] = vu;
  });
  return delta;
}

double LowerSweep(const FixedPointSweepArgs& args) {
  double delta = 0;
  double* const b = args.bounds;
  const LocalGraph& local = *args.local;
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      FLOS_AUDIT(row.idx[e] < n, "local CSR column index out of range");
      FLOS_AUDIT(row.weight[e] >= 0.0,
                 "negative transition probability in local CSR");
      s += row.weight[e] * b[2 * static_cast<size_t>(row.idx[e])];
    }
    if (local.IsQueryLocal(i)) continue;  // pinned
    double& lo = b[2 * static_cast<size_t>(i)];
    const double v = std::max(args.alpha * s + args.self_coeff[i] * lo, lo);
    delta = std::max(delta, v - lo);
    lo = v;
  }
  return delta;
}

}  // namespace flos
