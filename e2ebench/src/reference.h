// Answer checks that do not depend on the library: plain std containers,
// textbook algorithms, run on the generator's own record of the final
// graph. Nothing here is a stored copy of a library output.
//
//   ComponentLabels  union-find components  -> Connected, NumComponents
//   DisconnectsRef   BFS of G \ S            -> Disconnects(S)
//   BridgeIndices    Tarjan low-link         -> IsBridge, TwoEdgeConnect
//   CutSize          hyperedges crossing a shore -> ApproxMinCut
#ifndef GMS_E2EBENCH_REFERENCE_H_
#define GMS_E2EBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// A hyperedge (a graph edge when it has two vertices): sorted, distinct.
using HEdge = std::vector<uint32_t>;

/// splitmix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound >= 1.
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Component label per vertex (labels dense in [0, *num_components)).
std::vector<uint32_t> ComponentLabels(size_t n, const std::vector<HEdge>& edges,
                                      size_t* num_components);

/// Compressed adjacency of a graph (rank-2 edges only).
struct Adjacency {
  std::vector<uint32_t> offset;  // n + 1 entries
  std::vector<uint32_t> neighbor;
};
Adjacency BuildAdjacency(size_t n, const std::vector<HEdge>& edges);

/// True iff the vertices outside `s` are not all mutually connected once
/// `s` is removed (the library's Disconnects semantics).
bool DisconnectsRef(const Adjacency& adj, const std::vector<uint32_t>& s);

/// Indices into `edges` of the bridges: hyperedges whose removal raises
/// the number of components. Tarjan low-link on the vertex/hyperedge
/// incidence graph, where a hyperedge is a bridge exactly when its node
/// is an articulation point.
std::vector<size_t> BridgeIndices(size_t n, const std::vector<HEdge>& edges);

/// Number of hyperedges with vertices on both sides of `side`.
size_t CutSize(const std::vector<HEdge>& edges, const std::vector<bool>& side);

/// Packs a hyperedge of rank <= 3 over ids < 2^21 into one key.
uint64_t EdgeKey(const HEdge& e);

}  // namespace e2e

#endif  // GMS_E2EBENCH_REFERENCE_H_
