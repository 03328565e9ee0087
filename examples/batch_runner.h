// Batch k-NN over a pool of warm engines: the batch-file reader and the
// engine behind knn_cli's --batch-file mode, kept in their own header so
// the tests can drive them.

#ifndef FLOS_EXAMPLES_BATCH_RUNNER_H_
#define FLOS_EXAMPLES_BATCH_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "service/session_pool.h"
#include "util/line_reader.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace flos::cli {

// Reads a batch file: one query node id below `num_nodes` per line; blank
// lines and '#' comments are skipped. Any other line ("12abc", "7 9", an
// id out of range) fails the whole file with a `<path>:<line>:` Status.
inline Result<std::vector<NodeId>> ReadBatchFile(const std::string& path,
                                                 uint64_t num_nodes) {
  FLOS_ASSIGN_OR_RETURN(LineReader reader,
                        LineReader::Open(path, "batch file"));
  std::vector<NodeId> queries;
  while (reader.Next()) {
    const char first = reader.Peek();
    if (first == '\0' || first == '#') continue;
    uint64_t node = 0;
    FLOS_RETURN_IF_ERROR(reader.ParseU64("query node id", &node));
    FLOS_RETURN_IF_ERROR(reader.ExpectEnd());
    if (node >= num_nodes) {
      return Status::OutOfRange(reader.At(
          "query node " + std::to_string(node) + " is not below the graph's " +
          std::to_string(num_nodes) + " nodes"));
    }
    queries.push_back(static_cast<NodeId>(node));
  }
  FLOS_RETURN_IF_ERROR(reader.status());
  return queries;
}

// Answers `queries[i]` into slot i on `num_threads` workers (<= 0 = all
// cores), one pool session per worker. The first failing query stops the
// rest of the batch; the error of the earliest failed slot is returned.
inline Result<std::vector<FlosResult>> RunBatch(
    const Graph& graph, const std::vector<NodeId>& queries, int k,
    const FlosOptions& options, int num_threads) {
  if (num_threads <= 0) num_threads = ThreadPool::DefaultNumThreads();
  num_threads = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(num_threads), std::max<size_t>(1, queries.size())));
  EngineSessionPool sessions(&graph, static_cast<size_t>(num_threads));
  std::vector<FlosResult> results(queries.size());
  // Each slot is written by exactly the one task that owns index i.
  std::vector<Status> errors(queries.size());
  std::atomic<bool> failed{false};
  {
    ThreadPool pool(num_threads);
    for (size_t i = 0; i < queries.size(); ++i) {
      // A freshly constructed pool always accepts; only Shutdown rejects.
      (void)pool.Submit([&, i] {
        if (failed.load(std::memory_order_relaxed)) return;
        const EngineSessionPool::Lease lease = sessions.Acquire();
        auto result = lease.engine()->TopK(queries[i], k, options);
        if (!result.ok()) {
          errors[i] = result.status();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        results[i] = std::move(result).value();
      });
    }
    pool.Wait();
  }
  for (const Status& error : errors) {
    if (!error.ok()) return error;
  }
  return results;
}

}  // namespace flos::cli

#endif  // FLOS_EXAMPLES_BATCH_RUNNER_H_
