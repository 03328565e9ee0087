// Google-benchmark microbenchmarks for the kernels the figure-level
// results are built from: CSR neighbor scans, one global-iteration sweep,
// the engine's fused Gauss–Seidel bound sweep over the pair-layout bounds
// (plain and audited), a FLoS expansion + bound update step, full
// queries, and disk reads.
//
// After the google-benchmark run, the binary self-times the bound sweep
// and full-query throughput at k=20 on the RAND and R-MAT presets and
// writes `BENCH_kernels.json` (ns/sweep, iterations-to-converge, QPS) so
// future changes have a perf trajectory to compare against. Pass
// --no-kernel-json to skip the JSON pass.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/local_graph.h"
#include "core/sweep_kernel.h"
#include "core/unified_bound_engine.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "measures/exact.h"
#include "storage/disk_builder.h"
#include "storage/disk_graph.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace flos {
namespace {

const Graph& TestGraph() {
  static const Graph* const kGraph = [] {
    GeneratorOptions options;
    options.num_nodes = 1 << 16;
    options.num_edges = 10 * (1 << 16);
    options.seed = 7;
    auto result = GenerateRmat(options);
    if (!result.ok()) {
      std::fprintf(stderr, "graph generation failed\n");
      std::abort();
    }
    return new Graph(std::move(result).value());
  }();
  return *kGraph;
}

const Graph& RandGraph() {
  static const Graph* const kGraph = [] {
    GeneratorOptions options;
    options.num_nodes = 1 << 16;
    options.num_edges = 10 * (1 << 16);
    options.seed = 11;
    auto result = GenerateErdosRenyi(options);
    if (!result.ok()) {
      std::fprintf(stderr, "graph generation failed\n");
      std::abort();
    }
    return new Graph(std::move(result).value());
  }();
  return *kGraph;
}

// ---------------------------------------------------------------------------
// Bound-sweep kernel fixture: a frozen visited subgraph S (the flat SoA
// local CSR, live in the LocalGraph) with the PHP-form boundary
// coefficients, so the plain and audited sweeps run over identical data.
struct SweepFixture {
  SweepFixture(const Graph& g, uint32_t target_nodes, uint64_t seed) {
    accessor = std::make_unique<InMemoryAccessor>(&g);
    local = std::make_unique<LocalGraph>(accessor.get());
    Rng rng(seed);
    NodeId q;
    do {
      q = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    } while (g.Degree(q) == 0);
    if (!local->Init(q).ok()) std::abort();
    while (local->Size() < target_nodes && !local->Exhausted()) {
      for (LocalId i = 0; i < local->Size(); ++i) {
        if (local->IsBoundary(i)) {
          if (!local->Expand(i).ok()) std::abort();
          break;
        }
      }
    }
    const uint32_t n = local->Size();
    self_coeff.assign(n, 0.0);
    mesh_dummy_coeff.assign(n, 0.0);
    plain_dummy_coeff.assign(n, 0.0);
    hidden_coeff.assign(n, 0.0);
    row_entries = 0;
    for (LocalId i = 0; i < n; ++i) {
      row_entries += local->Row(i).len;
      if (local->IsQueryLocal(i) || !local->IsBoundary(i)) continue;
      // The engine's own mass definitions (UnifiedBoundEngine reads the
      // same two maintained values), so the kernels see its coefficients.
      const double out_mass = local->OutMass(i);
      const double loop_mass = local->LoopMass(i);
      plain_dummy_coeff[i] = kAlpha * out_mass;
      self_coeff[i] = kAlpha * kAlpha * loop_mass;
      mesh_dummy_coeff[i] = kAlpha * kAlpha * (out_mass - loop_mass);
    }
  }

  void ResetBounds() {
    bounds.assign(2 * static_cast<size_t>(local->Size()), 0.0);
    for (size_t i = 1; i < bounds.size(); i += 2) bounds[i] = 1.0;
    bounds[0] = 1.0;  // query row pinned at (1, 1)
  }

  // One sweep of the engine's kernel (FusedSweep, core/sweep_kernel.h)
  // over the pair-interleaved bounds — bounds[2i] = lower_i,
  // bounds[2i+1] = upper_i.
  double Sweep() {
    FixedPointSweepArgs args;
    args.local = local.get();
    args.bounds = bounds.data();
    args.self_coeff = self_coeff.data();
    args.mesh_dummy_coeff = mesh_dummy_coeff.data();
    args.plain_dummy_coeff = plain_dummy_coeff.data();
    args.hidden_coeff = hidden_coeff.data();
    args.alpha = kAlpha;
    args.dummy_tight = 1.0;
    args.dummy_mesh = 1.0;
    args.self_loop = true;
    return FusedSweep(args);
  }

  // The same sweep over the same pair layout with the audit-tier checks
  // forced on (plain FLOS_CHECK where the production code has compiled-out
  // FLOS_AUDIT): the entry/exit sandwich scans, cross-sweep monotonicity
  // against a copy of the bounds, and the per-entry CSR validity checks,
  // mirroring what unified_bound_engine.cc + sweep_kernel.h run under
  // -DFLOS_ENABLE_AUDIT=ON. Prices the audit tier on this kernel; the
  // plain Release kernel must not regress, since there the same sites
  // compile to nothing.
  double AuditedSweep() {
    const uint32_t n = local->Size();
    double* const b = bounds.data();
    for (size_t i = 0; i < n; ++i) {
      FLOS_CHECK_LE(b[2 * i], b[2 * i + 1] + 1e-12,
                    "sandwich violated on entry");
    }
    audit_prev = bounds;
    double delta = 0;
    for (LocalId i = 0; i < n; ++i) {
      if (i + 1 < n) local->PrefetchRow(i + 1);
      const LocalRow row = local->Row(i);
      double s_lo = 0;
      double s_hi = 0;
      for (uint32_t e = 0; e < row.len; ++e) {
        const double p = row.weight[e];
        const LocalId j = row.idx[e];
        FLOS_CHECK(j < n, "local CSR column index out of range");
        FLOS_CHECK(p >= 0.0, "negative transition probability in local CSR");
        const double* const pj = b + 2 * static_cast<size_t>(j);
        s_lo += p * pj[0];
        s_hi += p * pj[1];
      }
      if (i == 0) continue;
      double* const pi = b + 2 * static_cast<size_t>(i);
      const double lo = pi[0];
      const double hi = pi[1];
      const double vl = std::max(kAlpha * s_lo + self_coeff[i] * lo, lo);
      double vu = kAlpha * s_hi + plain_dummy_coeff[i] * 1.0;
      vu = std::min(vu, kAlpha * s_hi + self_coeff[i] * hi +
                            mesh_dummy_coeff[i] * 1.0);
      vu = std::min(vu, hi);
      delta = std::max(delta, std::max(vl - lo, hi - vu));
      pi[0] = vl;
      pi[1] = vu;
    }
    for (size_t i = 0; i < n; ++i) {
      FLOS_CHECK_GE(b[2 * i], audit_prev[2 * i], "lower bound loosened");
      FLOS_CHECK_LE(b[2 * i + 1], audit_prev[2 * i + 1],
                    "upper bound loosened");
      FLOS_CHECK_LE(b[2 * i], b[2 * i + 1] + 1e-12,
                    "sandwich violated after sweep");
    }
    return delta;
  }

  static constexpr double kAlpha = 0.5;

  std::unique_ptr<InMemoryAccessor> accessor;
  std::unique_ptr<LocalGraph> local;
  std::vector<double> bounds;
  std::vector<double> self_coeff;
  std::vector<double> mesh_dummy_coeff;
  std::vector<double> plain_dummy_coeff;
  std::vector<double> hidden_coeff;
  std::vector<double> audit_prev;
  uint64_t row_entries = 0;
};

SweepFixture& SharedFixture() {
  static SweepFixture* const kFixture = new SweepFixture(TestGraph(), 4000, 3);
  return *kFixture;
}

void BM_CsrNeighborScan(benchmark::State& state) {
  const Graph& g = TestGraph();
  Rng rng(1);
  double sink = 0;
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    for (const double w : g.NeighborWeights(u)) sink += w;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsrNeighborScan);

void BM_GlobalIterationSweep(benchmark::State& state) {
  // One full Jacobi sweep of the PHP system over the whole graph: the unit
  // of work GI pays per iteration.
  const Graph& g = TestGraph();
  std::vector<double> r(g.NumNodes(), 0.0);
  std::vector<double> next(g.NumNodes(), 0.0);
  r[0] = 1.0;
  for (auto _ : state) {
    for (uint64_t i = 1; i < g.NumNodes(); ++i) {
      const auto ids = g.NeighborIds(static_cast<NodeId>(i));
      const auto ws = g.NeighborWeights(static_cast<NodeId>(i));
      double sum = 0;
      for (size_t e = 0; e < ids.size(); ++e) sum += ws[e] * r[ids[e]];
      next[i] = 0.5 * sum / g.WeightedDegree(static_cast<NodeId>(i));
    }
    next[0] = 1.0;
    r.swap(next);
  }
  benchmark::DoNotOptimize(r.data());
  state.SetItemsProcessed(state.iterations() * g.NumDirectedEdges());
}
BENCHMARK(BM_GlobalIterationSweep);

void BM_BoundSweepFusedGS(benchmark::State& state) {
  // The engine's kernel: one scan of the flat SoA local CSR per iteration
  // computes both bounds and updates them in place (Gauss–Seidel).
  SweepFixture& f = SharedFixture();
  f.ResetBounds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Sweep());
  }
  state.SetItemsProcessed(state.iterations() * f.row_entries);
  state.counters["visited"] = static_cast<double>(f.local->Size());
}
BENCHMARK(BM_BoundSweepFusedGS);

void BM_BoundSweepFusedGSAudited(benchmark::State& state) {
  // The same kernel with the audit-tier invariant checks forced on: what
  // every sweep costs under the `audit` preset.
  SweepFixture& f = SharedFixture();
  f.ResetBounds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.AuditedSweep());
  }
  state.SetItemsProcessed(state.iterations() * f.row_entries);
  state.counters["visited"] = static_cast<double>(f.local->Size());
}
BENCHMARK(BM_BoundSweepFusedGSAudited);

void BM_FlosExpansionStep(benchmark::State& state) {
  // One LocalExpansion + bound update, amortized over a fresh query each
  // time the frontier empties.
  const Graph& g = TestGraph();
  InMemoryAccessor accessor(&g);
  Rng rng(3);
  std::unique_ptr<LocalGraph> local;
  std::unique_ptr<UnifiedBoundEngine> engine;
  UnifiedBoundOptions be;
  be.traits.alpha = 0.5;
  const auto reset = [&] {
    local = std::make_unique<LocalGraph>(&accessor);
    const auto q = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (!local->Init(q).ok()) std::abort();
    engine = std::make_unique<UnifiedBoundEngine>(local.get(), be);
  };
  reset();
  for (auto _ : state) {
    LocalId best = kInvalidLocal;
    double best_mid = -1;
    for (LocalId i = 0; i < local->Size(); ++i) {
      if (!local->IsBoundary(i)) continue;
      const double mid = 0.5 * (engine->lower(i) + engine->upper(i));
      if (mid > best_mid) {
        best = i;
        best_mid = mid;
      }
    }
    if (best == kInvalidLocal || local->Size() > 4000) {
      state.PauseTiming();
      reset();
      state.ResumeTiming();
      continue;
    }
    engine->CaptureDummyFromBoundary();
    if (!local->Expand(best).ok()) std::abort();
    engine->OnGrowth();
    engine->UpdateBounds();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlosExpansionStep);

void BM_FlosFullQuery(benchmark::State& state) {
  const Graph& g = TestGraph();
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  Rng rng(4);
  FlosOptions options;
  options.measure = Measure::kPhp;
  for (auto _ : state) {
    const auto q = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (g.Degree(q) == 0) continue;
    const auto r = engine.TopK(q, static_cast<int>(state.range(0)), options);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r.value().topk.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlosFullQuery)->Arg(1)->Arg(10)->Arg(50);

void BM_DiskNeighborFetch(benchmark::State& state) {
  const Graph& g = TestGraph();
  const std::string path = "/tmp/flos_micro_bench.flosgrf";
  if (!WriteDiskGraph(g, path).ok()) std::abort();
  DiskGraphOptions options;
  options.cache_bytes = 1 << 20;
  auto disk_result = DiskGraph::Open(path, options);
  if (!disk_result.ok()) std::abort();
  auto disk = std::move(disk_result).value();
  Rng rng(5);
  std::vector<Neighbor> nbs;
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (!disk->CopyNeighbors(u, &nbs).ok()) std::abort();
    benchmark::DoNotOptimize(nbs.data());
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_DiskNeighborFetch);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: a machine-readable perf baseline for the bound-sweep
// kernel and end-to-end queries, emitted after the google-benchmark run.

double TimeSweeps(SweepFixture* f, bool audited, int sweeps) {
  f->ResetBounds();
  WallTimer timer;
  double sink = 0;
  for (int s = 0; s < sweeps; ++s) {
    sink += audited ? f->AuditedSweep() : f->Sweep();
  }
  const double ns = timer.ElapsedSeconds() * 1e9 / sweeps;
  benchmark::DoNotOptimize(sink);
  return ns;
}

uint32_t SweepsToConverge(SweepFixture* f, double tolerance) {
  f->ResetBounds();
  uint32_t sweeps = 0;
  while (sweeps < 10000) {
    const double delta = f->Sweep();
    ++sweeps;
    if (delta < tolerance) break;
  }
  return sweeps;
}

struct QueryPoint {
  std::string graph;
  double qps = 0;
  double avg_ms = 0;
  double avg_visited = 0;
};

QueryPoint TimeQueries(const Graph& g, const std::string& name, int k,
                       int num_queries) {
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  FlosOptions options;
  options.measure = Measure::kPhp;
  Rng rng(21);
  std::vector<NodeId> queries;
  while (queries.size() < static_cast<size_t>(num_queries)) {
    const auto q = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (g.Degree(q) > 0) queries.push_back(q);
  }
  uint64_t visited = 0;
  WallTimer timer;
  for (const NodeId q : queries) {
    const auto r = engine.TopK(q, k, options);
    if (!r.ok()) std::abort();
    visited += r.value().stats.visited_nodes;
  }
  const double secs = timer.ElapsedSeconds();
  QueryPoint point;
  point.graph = name;
  point.qps = num_queries / secs;
  point.avg_ms = secs * 1e3 / num_queries;
  point.avg_visited = static_cast<double>(visited) / num_queries;
  return point;
}

void EmitKernelBaseline(const char* path) {
  SweepFixture& f = SharedFixture();
  // Warm the caches, then time each kernel over enough sweeps to settle.
  TimeSweeps(&f, /*audited=*/false, 50);
  const double sweep_ns = TimeSweeps(&f, /*audited=*/false, 400);
  const double audited_ns = TimeSweeps(&f, /*audited=*/true, 400);
  const double tol = 1e-8;
  const uint32_t gs_iters = SweepsToConverge(&f, tol);
  const QueryPoint rand_point = TimeQueries(RandGraph(), "RAND", 20, 200);
  const QueryPoint rmat_point = TimeQueries(TestGraph(), "RMAT", 20, 200);

  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"host_cpus\": %d,\n",
               ThreadPool::DefaultNumThreads());
  std::fprintf(out, "  \"bound_sweep\": {\n");
  std::fprintf(out, "    \"visited_nodes\": %u,\n", f.local->Size());
  std::fprintf(out, "    \"row_entries\": %llu,\n",
               static_cast<unsigned long long>(f.row_entries));
  std::fprintf(out, "    \"fused_gs_ns_per_sweep\": %.1f,\n", sweep_ns);
  std::fprintf(out, "    \"fused_gs_audited_ns_per_sweep\": %.1f,\n",
               audited_ns);
  std::fprintf(out, "    \"audit_overhead_ratio\": %.3f\n",
               audited_ns / sweep_ns);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"iterations_to_converge\": {\n");
  std::fprintf(out, "    \"tolerance\": %g,\n", tol);
  std::fprintf(out, "    \"gauss_seidel\": %u\n", gs_iters);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"full_query_k20_php\": [\n");
  const QueryPoint* points[] = {&rand_point, &rmat_point};
  for (int i = 0; i < 2; ++i) {
    std::fprintf(out,
                 "    {\"graph\": \"%s\", \"qps\": %.1f, \"avg_ms\": %.4f, "
                 "\"avg_visited\": %.1f}%s\n",
                 points[i]->graph.c_str(), points[i]->qps, points[i]->avg_ms,
                 points[i]->avg_visited, i == 0 ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("kernel baseline written to %s (audit overhead %.2fx, "
              "%u sweeps to converge, RAND %.0f qps, RMAT %.0f qps)\n",
              path, audited_ns / sweep_ns, gs_iters, rand_point.qps,
              rmat_point.qps);
}

}  // namespace
}  // namespace flos

int main(int argc, char** argv) {
  bool emit_json = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-kernel-json") == 0) {
      emit_json = false;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (emit_json) flos::EmitKernelBaseline("BENCH_kernels.json");
  return 0;
}
