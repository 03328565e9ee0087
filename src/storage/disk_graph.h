// Disk-resident graph implementing the GraphAccessor interface.
//
// This is the Neo4j stand-in for the paper's Section 6.4 experiment: FLoS
// runs unmodified over it because it only ever asks for a node's neighbors
// and degree. Adjacency lists are read from disk through a bounded LRU
// block cache; the per-node index arrays (offsets, degrees, degree order)
// are held in memory, as any disk graph store would.

#ifndef FLOS_STORAGE_DISK_GRAPH_H_
#define FLOS_STORAGE_DISK_GRAPH_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/accessor.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace flos {

struct DiskGraphOptions {
  /// Cache budget for adjacency blocks. The paper restricted total memory
  /// to 2 GB for multi-GB graphs; scale accordingly.
  uint64_t cache_bytes = 64ull << 20;
  /// Block (page) size for disk reads. 8 KiB keeps read amplification low
  /// for the scattered small adjacency lists local search touches.
  uint64_t block_bytes = 8 << 10;
};

/// Read-only disk graph. The instance is thread-compatible, not
/// thread-safe (the access counters are per-instance and unsynchronized);
/// the FILE ITSELF is immutable and may be shared. For concurrent
/// queries, Open the same path once per worker thread — each accessor
/// then has its own handle and cache, per the GraphAccessor thread-safety
/// contract.
///
/// Defense in depth: the one resource a contract violation would corrupt
/// SILENTLY — the seek+read pair on the shared file handle and the LRU
/// block cache it fills — is serialized internally under `io_mu_`
/// (annotated, compiler-enforced). Sharing an instance across threads
/// therefore skews counters and thrashes the cache, but can never decode
/// adjacency bytes from a torn seek.
class DiskGraph final : public GraphAccessor {
 public:
  static Result<std::unique_ptr<DiskGraph>> Open(const std::string& path,
                                                 const DiskGraphOptions& options);

  ~DiskGraph() override;
  DiskGraph(const DiskGraph&) = delete;
  DiskGraph& operator=(const DiskGraph&) = delete;

  uint64_t NumNodes() const override { return num_nodes_; }
  uint64_t NumEdges() const override { return num_directed_edges_ / 2; }
  double WeightedDegree(NodeId u) override;
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override;
  const std::vector<NodeId>& DegreeOrder() const override {
    return degree_order_;
  }
  double MaxWeightedDegree() const override { return max_weighted_degree_; }

 private:
  DiskGraph(const DiskGraphOptions& options)
      : options_(options), cache_(options.cache_bytes) {}

  /// Reads `bytes` at `offset` (relative to file start) into `out`,
  /// through the block cache. Caller holds io_mu_ (the seek+read pair and
  /// the cache update must be atomic with respect to other readers).
  Status ReadRange(uint64_t offset, uint64_t bytes, std::vector<char>* out)
      FLOS_REQUIRES(io_mu_);

  DiskGraphOptions options_;
  uint64_t num_nodes_ = 0;
  uint64_t num_directed_edges_ = 0;
  double max_weighted_degree_ = 0;
  uint64_t adjacency_offset_ = 0;
  std::vector<uint64_t> offsets_;
  std::vector<double> degrees_;
  std::vector<NodeId> degree_order_;
  /// Guards the stateful read path: handle position, block cache, and the
  /// decode scratch. Open/~DiskGraph touch file_ pre/post concurrency.
  Mutex io_mu_;
  std::FILE* file_ FLOS_GUARDED_BY(io_mu_) = nullptr;
  /// Adjacency blocks by block id, charged in bytes against cache_bytes.
  LruCache<uint64_t, std::vector<char>> cache_ FLOS_GUARDED_BY(io_mu_);
  std::vector<char> range_scratch_ FLOS_GUARDED_BY(io_mu_);
};

}  // namespace flos

#endif  // FLOS_STORAGE_DISK_GRAPH_H_
