// Seeded workload generators. Each returns the stream the library will
// ingest plus the generator's own record of the final graph and of what
// it planted, which the reference checks read. The same seed gives the
// same input.
#ifndef GMS_E2EBENCH_INPUTS_H_
#define GMS_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "reference.h"

namespace e2e {

struct Input {
  size_t n = 0;
  size_t max_rank = 2;
  /// The stream, in order: (hyperedge, +1 insert / -1 delete).
  std::vector<std::pair<HEdge, int>> updates;
  /// The graph the stream leaves behind.
  std::vector<HEdge> final_edges;
  /// Vertices the stream leaves isolated (batch_dense).
  std::vector<uint32_t> isolated;
  /// The two hubs whose removal separates the halves (serve_vc).
  std::vector<uint32_t> separator;
  /// side[v] for the planted shore (apps_hypercut).
  std::vector<bool> shore;
  size_t planted_cut = 0;
};

/// Gnm churn graph: `n` vertices, n/64 of them left isolated, the rest
/// joined by Gnm edges of mean degree `mean_degree`; `decoys` extra pairs
/// are inserted and later deleted.
Input MakeGnmChurn(size_t n, double mean_degree, size_t decoys, uint64_t seed);

/// Planted separator: two hubs adjacent to every other vertex, and two
/// halves each the union of `cycles` random Hamiltonian cycles, so removing
/// the hubs (and no smaller set) disconnects the graph. Decoy pairs, cross-
/// half ones included, are inserted and later deleted; there are as many
/// as bring the stream to `stream_updates` (give or take one), so every
/// seed gives a stream of the same length.
Input MakePlantedSeparator(size_t n, size_t cycles, size_t stream_updates,
                           uint64_t seed);

/// Rank-3 planted-cut hypergraph: two shores, each the union of two
/// cyclic triple chains over a random order plus n/2 random triples, joined
/// by exactly three crossing triples; `decoys` triples are inserted and
/// later deleted.
Input MakePlantedHypercut(size_t n, size_t decoys, uint64_t seed);

}  // namespace e2e

#endif  // GMS_E2EBENCH_INPUTS_H_
