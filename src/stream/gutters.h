// Per-vertex update gutters: the buffering layer of the gutter driver
// (DESIGN.md §11).
//
// The hot-path problem the driver solves: batched ingest applies each
// stream update to every endpoint's (vertex, round) columns immediately,
// which for an arena far larger than cache means ~8 compulsory misses per
// update at a RANDOM vertex -- ingest throughput goes flat in the thread
// count because every worker is latency-bound on the same DRAM. Because
// every sketch here is LINEAR, updates destined for the same vertex can be
// coalesced and applied in any order: a reader prepares each update once
// (codec rank, key fold, exponent reduction), stages one entry per
// endpoint, and groups a whole epoch of entries by destination vertex; the
// applier that owns a vertex then replays that vertex's entries as
// batches over its contiguous sketch block while it is cache resident.
//
// This header owns the passive pieces -- the per-endpoint entry type and
// the epoch staging buffer. The driver loop that wires them to a sketch is
// stream/stream_driver.h; IngestPlane::Process uses the stage inline.
#ifndef GMS_STREAM_GUTTERS_H_
#define GMS_STREAM_GUTTERS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.h"
#include "sketch/sparse_recovery.h"

namespace gms {

/// One buffered incidence update for one endpoint vertex: everything the
/// per-vertex apply needs, with the shape-independent preparation (codec
/// index, folded key halves, reduced exponent) done ONCE by the reader and
/// shared by every sketch the entry fans out to. The hyperedge itself does
/// not travel: the incidence coefficient (|e|-1 at the minimum endpoint,
/// -1 elsewhere, times the stream delta) is the only endpoint-dependent
/// part of the update, and routing decisions that need the other endpoints
/// (the vertex-subsampled containers) are folded into `route` at reader
/// time.
struct VertexUpdate {
  PreparedCoord pc;
  /// Container-defined routing bits, computed by DriverRouteMask(e) before
  /// fan-out: bit i set means sub-sketch family i receives this update
  /// (kept-bitmap membership for the subsampled containers; plain sketches
  /// use the constant mask 1 and ignore it on apply).
  uint64_t route = 0;
  /// IncidenceCoefficient(e, v) * delta: the signed weight this endpoint's
  /// cells receive (Section 4.1 encoding).
  int64_t coeff = 0;
};

/// One epoch of staged updates, grouped by destination vertex: every
/// vertex's gutter for the epoch as one contiguous run of a sorted key
/// array. Each update is stored ONCE (prepared coordinate, route, delta,
/// rank); each endpoint adds an 8-byte key (vertex << 32 | update << 1 |
/// is-head). Seal() is a stable LSD radix sort of the keys on the vertex
/// bits, so a vertex's run lists its entries in stream order -- the order
/// the serial path applies them in. Buffers are reused across epochs:
/// staging allocates nothing per vertex, and nothing at all once the
/// buffers have grown to the epoch's size.
class GutterStage {
 public:
  /// Drop every staged update and make room for `updates` more of rank
  /// at most `max_rank` without reallocating mid-epoch. Capacity is kept
  /// across calls.
  void Clear(size_t updates, size_t max_rank) {
    updates_.clear();
    keys_.clear();
    updates_.reserve(updates);
    keys_.reserve(updates * max_rank);
  }

  /// Stage one prepared, routed update: one entry per endpoint of `e`.
  void Add(const Hyperedge& e, const PreparedCoord& pc, uint64_t route,
           int delta) {
    const uint64_t id = updates_.size();
    updates_.push_back(Staged{pc, route, delta,
                              static_cast<int32_t>(e.size()) - 1});
    for (size_t pos = 0; pos < e.size(); ++pos) {
      // Section 4.1 incidence coefficients; the edge is sorted, so the
      // minimum endpoint is position 0.
      keys_.push_back(uint64_t{e[pos]} << 32 | id << 1 |
                      (pos == 0 ? 1u : 0u));
    }
  }

  /// Staged endpoint entries.
  size_t entries() const { return keys_.size(); }

  /// Group the staged entries by vertex (all endpoints lie in [0, n)).
  /// Must precede ForEachBatch; Add after Seal needs a Clear first.
  void Seal(size_t n);

  /// Hand every vertex in [begin, end) its entries, in increasing vertex
  /// order, as batches of at most `cap` (>= 1) entries gathered into
  /// *scratch: fn(v, span) once per batch. Returns the batch count. Safe
  /// to call concurrently on one sealed stage (the stage is only read).
  template <typename Fn>
  uint64_t ForEachBatch(uint64_t begin, uint64_t end, size_t cap,
                        std::vector<VertexUpdate>* scratch, Fn&& fn) const {
    uint64_t batches = 0;
    auto it = std::partition_point(
        keys_.begin(), keys_.end(),
        [begin](uint64_t key) { return (key >> 32) < begin; });
    while (it != keys_.end() && (*it >> 32) < end) {
      const VertexId v = static_cast<VertexId>(*it >> 32);
      scratch->clear();
      while (it != keys_.end() && (*it >> 32) == v &&
             scratch->size() < cap) {
        const Staged& s = updates_[(*it & 0xffffffffu) >> 1];
        const int64_t coeff = (*it & 1) != 0
                                  ? int64_t{s.head} * s.delta
                                  : -int64_t{s.delta};
        scratch->push_back(VertexUpdate{s.pc, s.route, coeff});
        ++it;
      }
      ++batches;
      fn(v, std::span<const VertexUpdate>(*scratch));
    }
    return batches;
  }

 private:
  struct Staged {
    PreparedCoord pc;
    uint64_t route;
    int32_t delta;
    int32_t head;  // |e| - 1: the minimum endpoint's coefficient factor
  };

  std::vector<Staged> updates_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sort_scratch_;
};

}  // namespace gms

#endif  // GMS_STREAM_GUTTERS_H_
