// The answer checks the workloads apply, each booking one operation on a
// Checker. They compare the library's answer with the reference computed
// in reference.h from the generator's own record of the graph. SelfTest
// (harness.cc) feeds every one of them a wrong answer.
#ifndef GMS_E2EBENCH_CHECKS_H_
#define GMS_E2EBENCH_CHECKS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "reference.h"

namespace e2e {

inline void CheckConnected(Checker* c, bool answer,
                           const std::vector<uint32_t>& ref_label, uint32_t u,
                           uint32_t v) {
  c->Expect(answer == (ref_label[u] == ref_label[v]), [&] {
    return "Connected(" + std::to_string(u) + "," + std::to_string(v) + ")";
  });
}

inline void CheckNumComponents(Checker* c, size_t answer, size_t ref) {
  c->Expect(answer == ref, [&] {
    return "NumComponents " + std::to_string(answer) +
           " != " + std::to_string(ref);
  });
}

inline void CheckDisconnects(Checker* c, bool answer, const Adjacency& adj,
                             const std::vector<uint32_t>& s) {
  c->Expect(answer == DisconnectsRef(adj, s), [&] {
    std::string what = "Disconnects({";
    for (uint32_t v : s) what.append(" ").append(std::to_string(v));
    return what.append(" })");
  });
}

/// `ref_bridge_keys` sorted EdgeKeys of the reference bridges.
inline void CheckIsBridge(Checker* c, bool answer,
                          const std::vector<uint64_t>& ref_bridge_keys,
                          const HEdge& e) {
  const bool ref = std::binary_search(ref_bridge_keys.begin(),
                                      ref_bridge_keys.end(), EdgeKey(e));
  c->Expect(answer == ref, [&] {
    return "IsBridge(" + std::to_string(e[0]) + "," +
           std::to_string(e[1]) + ")";
  });
}

/// The whole bridge set (TwoEdgeConnect): equal as sets of edge keys.
inline void CheckBridgeSet(Checker* c, std::vector<uint64_t> answer_keys,
                           const std::vector<uint64_t>& ref_bridge_keys) {
  std::sort(answer_keys.begin(), answer_keys.end());
  c->Expect(answer_keys == ref_bridge_keys, [&] {
    return "bridge set of " + std::to_string(answer_keys.size()) +
           " edges != reference " + std::to_string(ref_bridge_keys.size());
  });
}

/// A k-skeleton spans every component and keeps at most k(n-1) edges.
inline void CheckSkeletonEdgeCount(Checker* c, size_t answer, size_t n,
                                   size_t k, size_t ref_components,
                                   size_t ref_edges) {
  const size_t lo = n - ref_components;
  const size_t hi = std::min(k * (n - 1), ref_edges);
  c->Expect(lo <= answer && answer <= hi, [&] {
    return "SkeletonEdgeCount " + std::to_string(answer) + " outside [" +
           std::to_string(lo) + "," + std::to_string(hi) + "]";
  });
}

/// Min cut: the planted value, certified exact, and the returned shore
/// really cuts that many hyperedges of the final graph.
inline void CheckMinCut(Checker* c, size_t value, bool exact,
                        const std::vector<bool>& shore,
                        const std::vector<HEdge>& final_edges, size_t planted) {
  const size_t shore_cut =
      shore.empty() ? SIZE_MAX : CutSize(final_edges, shore);
  c->Expect(exact && value == planted && shore_cut == value, [&] {
    return "min cut " + std::to_string(value) + " (exact " +
           std::to_string(exact) + ", shore cuts " +
           std::to_string(shore_cut) + ") != planted " +
           std::to_string(planted);
  });
}

/// The serving engine's staleness bound: an answer given while the stream
/// runs covers all but at most two epochs of the updates ingested so far.
inline void CheckStaleness(Checker* c, uint64_t ingested, uint64_t prefix,
                           uint64_t epoch_updates) {
  c->Expect(prefix <= ingested && ingested - prefix <= 2 * epoch_updates, [&] {
    return "prefix lag " + std::to_string(ingested) + " - " +
           std::to_string(prefix) + " > 2 x " +
           std::to_string(epoch_updates);
  });
}

}  // namespace e2e

#endif  // GMS_E2EBENCH_CHECKS_H_
