// The fixed-point sweep kernel (FixedPointSweeper, core/sweep_kernel.h).
//
// Serial sweeps are one fused Gauss–Seidel pass over the pair-layout
// bounds through FusedPairRowSweep, rows in visit order, with the
// monotone clamps applied per row.
//
// Parallel sweeps (FixedPointSweepArgs::pool): the non-query rows are cut
// into contiguous chunks balanced by entry count; each chunk Gauss–Seidels
// its own rows in place while reading other chunks' columns from the
// caller's pre-sweep snapshot (block-Jacobi across chunks). See the
// contract on FixedPointSweepArgs — writes are disjoint per chunk, reads
// of shared data touch only the immutable snapshot, so the sweep is
// race-free and deterministic for a fixed chunk count.

#include <algorithm>
#include <vector>

#include "core/sweep_kernel.h"
#include "util/thread_pool.h"

namespace flos {

double FixedPointSweeper::FusedSweep(const FixedPointSweepArgs& args) {
  if (UseParallel(args)) return ParallelSweep</*lower_only=*/false>(args);
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

double FixedPointSweeper::LowerSweep(const FixedPointSweepArgs& args) {
  if (UseParallel(args)) return ParallelSweep</*lower_only=*/true>(args);
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

bool FixedPointSweeper::UseParallel(const FixedPointSweepArgs& args) const {
  if (args.pool == nullptr || args.chunks < 2 || args.snapshot == nullptr) {
    return false;
  }
  const LocalGraph& local = *args.local;
  // One row per chunk is the floor for a meaningful partition.
  return local.Size() - local.query_count() >= args.chunks;
}

void FixedPointSweeper::BuildPartition(const LocalGraph& local,
                                       uint32_t chunks) {
  const uint32_t n = local.Size();
  const LocalId first = local.query_count();
  size_t total = 0;
  for (LocalId i = first; i < n; ++i) total += local.Row(i).len;
  chunk_begin_.assign(chunks + 1, n);
  chunk_begin_[0] = first;
  size_t seen = 0;
  uint32_t next_cut = 1;
  for (LocalId i = first; i < n && next_cut < chunks; ++i) {
    seen += local.Row(i).len;
    // Cut after row i once this chunk holds its entry share; every chunk
    // still gets at least one row (i + 1 advances past the cut).
    if (seen * chunks >= total * next_cut &&
        i + 1 + (chunks - next_cut) <= n) {
      chunk_begin_[next_cut++] = i + 1;
    }
  }
  partition_chunks_ = chunks;
}

template <bool lower_only>
double FixedPointSweeper::ParallelSweep(const FixedPointSweepArgs& args) {
  const LocalGraph& local = *args.local;
  if (partition_chunks_ != args.chunks) BuildPartition(local, args.chunks);
  const uint32_t chunks = args.chunks;
  deltas_.assign(chunks, PaddedDelta{});
  // Workers take chunks 1..chunks-1; the calling thread runs chunk 0 and
  // then waits — the pool is dedicated to this engine's sweeps, so Wait
  // is a barrier for exactly these tasks.
  for (uint32_t c = 1; c < chunks; ++c) {
    const Status submitted = args.pool->Submit([this, &args, c] {
      SweepChunk<lower_only>(args, chunk_begin_[c], chunk_begin_[c + 1],
                             &deltas_[c].value);
    });
    // A shut-down pool cannot run the chunk; fold it into the caller's
    // share instead of losing rows (bounds would stay certified but the
    // sweep must still cover every row to make progress).
    if (!submitted.ok()) {
      SweepChunk<lower_only>(args, chunk_begin_[c], chunk_begin_[c + 1],
                             &deltas_[c].value);
    }
  }
  SweepChunk<lower_only>(args, chunk_begin_[0], chunk_begin_[1],
                         &deltas_[0].value);
  args.pool->Wait();
  double delta = 0;
  for (const PaddedDelta& d : deltas_) delta = std::max(delta, d.value);
  return delta;
}

template <bool lower_only>
void FixedPointSweeper::SweepChunk(const FixedPointSweepArgs& args,
                                   LocalId begin, LocalId end,
                                   double* delta_out) const {
  double delta = 0;
  double* const b = args.bounds;
  const double* const snap = args.snapshot;
  const LocalGraph& local = *args.local;
  const uint32_t n = local.Size();
  for (LocalId i = begin; i < end; ++i) {
    if (i + 1 < end) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s_lo = 0;
    double s_hi = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      const double p = row.weight[e];
      const LocalId j = row.idx[e];
      FLOS_AUDIT(j < n, "local CSR column index out of range");
      FLOS_AUDIT(p >= 0.0, "negative transition probability in local CSR");
      // Unsigned trick: one compare classifies j as own-range.
      const bool own = static_cast<uint32_t>(j - begin) <
                       static_cast<uint32_t>(end - begin);
      const double* const pj = (own ? b : snap) + 2 * static_cast<size_t>(j);
      s_lo += p * pj[0];
      if (!lower_only) s_hi += p * pj[1];
    }
    double* const pi = b + 2 * static_cast<size_t>(i);
    const double lo = pi[0];
    const double vl = std::max(args.alpha * s_lo + args.self_coeff[i] * lo, lo);
    if (lower_only) {
      delta = std::max(delta, vl - lo);
      pi[0] = vl;
      continue;
    }
    const double hi = pi[1];
    const double hid = args.hidden_coeff[i] * args.dummy_mesh;
    double vu = args.alpha * s_hi +
                args.plain_dummy_coeff[i] * args.dummy_tight + hid;
    if (args.self_loop) {
      vu = std::min(vu, args.alpha * s_hi + args.self_coeff[i] * hi +
                            args.mesh_dummy_coeff[i] * args.dummy_mesh + hid);
    }
    vu = std::min(vu, hi);
    delta = std::max(delta, std::max(vl - lo, hi - vu));
    pi[0] = vl;
    pi[1] = vu;
  }
  *delta_out = delta;
}

}  // namespace flos
