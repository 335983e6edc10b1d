// The shared ingestion plane (DESIGN.md §15): one encode/prepare/route
// pass fanning out to every registered sketch consumer.
//
// Every multi-sketch composition in the tree ingests the SAME updates into
// several linear sketches: the serving layer's forest/VC/skeleton engines,
// TwoEdgeConnect's two forest layers, ApproxMinCut's k = 1, 2, 4, ...
// skeleton ladder. Run independently, each consumer pays the full hot path
// -- EdgeCodec encoding, the PreparedCoord key fold + exponent reduction,
// gutter routing -- once per consumer. But all of that work is a function
// of the UPDATE alone, not of the sketch it lands in, so the plane does it
// exactly once and fans the resulting per-vertex VertexUpdate batches out
// to N consumers.
//
// Route-word packing: the driver's 64-bit route word becomes a shared
// resource. Consumer i claims bits [shift_i, shift_i + bits_i): plain
// sketches (forests, skeletons, sparsifiers, the apps) claim one bit,
// subsampled containers claim one bit per subsample (DriverRouteBits()).
// A reader evaluates every consumer's own DriverRouteMask once per update
// and packs the masks into one word; an update routed nowhere is skipped
// entirely. On apply, each consumer sees only its own bits, shifted back
// down to position 0 -- bit-identical to what a solo drive would deliver.
//
// Determinism: for each consumer, the set of entries delivered per vertex
// is EXACTLY the set a solo ingest would deliver (same PreparedCoord, same
// coefficient, same per-consumer route bits), and every sketch cell is a
// sum of commutative exact field ops while the dirty/level summaries are
// monotone ORs -- so the fan-out order across consumers cannot change a
// single output bit. Shared-plane frames are byte-identical to independent
// ingest for every readers x appliers split (tests/ingest_plane_test.cc).
//
// Contract for registered consumers (the driver-sketch concept plus two
// optional members):
//   size_t n() const;                       // must match across consumers
//   const EdgeCodec& codec() const;         // same (n, max_rank) domain
//   uint64_t DriverRouteMask(const Hyperedge&) const;  // 0 = skip
//   void ApplyUpdateBatch(size_t thr_id, VertexId v,
//                         std::span<const VertexUpdate> batch);
//   size_t DriverRouteBits() const;         // optional; default 1
//   bool DriverSupported() const;           // optional; default true
// A one-bit consumer may receive batches whose entries carry OTHER
// consumers' bits above bit 0 (the pass-through fast path); it must
// interpret only bit 0. Multi-bit consumers always receive rebuilt entries
// with their own bits shifted down to [0, bits).
//
// The plane itself models the driver-sketch concept, so DriveStream /
// DriveStreamRecords / DriveBinaryFileStream drive it unchanged for
// parallel ingestion; Process() is the inline serial path (reader loop +
// gutter staging + direct fan-out on the calling thread, safe inside
// parallel regions).
#ifndef GMS_STREAM_INGEST_PLANE_H_
#define GMS_STREAM_INGEST_PLANE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_codec.h"
#include "stream/gutters.h"
#include "stream/stream.h"
#include "stream/stream_driver.h"
#include "util/check.h"

namespace gms {

class IngestPlane {
 public:
  IngestPlane() = default;

  // The plane holds raw consumer pointers and per-call scratch; copying it
  // would alias both.
  IngestPlane(const IngestPlane&) = delete;
  IngestPlane& operator=(const IngestPlane&) = delete;
  IngestPlane(IngestPlane&&) = default;
  IngestPlane& operator=(IngestPlane&&) = default;

  /// Register *sketch as a fan-out target. Returns false -- leaving the
  /// plane unchanged -- when the consumer cannot share this plane's single
  /// prepare pass: its codec domain (n, max_rank) differs from the first
  /// consumer's, its route bits would overflow the packed 64-bit word, or
  /// it reports DriverSupported() == false. Callers fall back to the
  /// consumer's own Process for the same updates. The pointer must outlive
  /// every subsequent Process/Drive call (or a Reset).
  template <typename Sketch>
  bool Add(Sketch* sketch) {
    GMS_CHECK_MSG(sketch != nullptr, "IngestPlane: null consumer");
    if constexpr (requires { sketch->DriverSupported(); }) {
      if (!sketch->DriverSupported()) return false;
    }
    size_t bits = 1;
    if constexpr (requires { sketch->DriverRouteBits(); }) {
      bits = sketch->DriverRouteBits();
    }
    if (bits == 0 || bits_used_ + bits > 64) return false;
    if (consumers_.empty()) {
      n_ = sketch->n();
      codec_ = &sketch->codec();
    } else if (sketch->n() != n_ ||
               sketch->codec().max_rank() != codec_->max_rank()) {
      return false;
    }
    Consumer c;
    c.sketch = sketch;
    c.shift = static_cast<uint32_t>(bits_used_);
    c.bits = static_cast<uint32_t>(bits);
    c.route = [](const void* p, const Hyperedge& e) -> uint64_t {
      return static_cast<const Sketch*>(p)->DriverRouteMask(e);
    };
    c.apply = &ApplyThunk<Sketch>;
    consumers_.push_back(c);
    bits_used_ += bits;
    return true;
  }

  /// Drop every registered consumer (the staging buffers survive for
  /// reuse). Call between chunks when the consumer pointers change.
  void Reset() {
    consumers_.clear();
    codec_ = nullptr;
    bits_used_ = 0;
  }

  size_t num_consumers() const { return consumers_.size(); }
  size_t route_bits_used() const { return bits_used_; }

  // --- Driver-sketch concept: DriveStream(&plane, ...) runs the full
  // reader/applier pipeline with ONE prepare pass for all consumers. ---

  size_t n() const {
    GMS_CHECK_MSG(!consumers_.empty(), "IngestPlane: no consumers");
    return n_;
  }
  const EdgeCodec& codec() const {
    GMS_CHECK_MSG(codec_ != nullptr, "IngestPlane: no consumers");
    return *codec_;
  }

  /// The packed word: each consumer's own mask, truncated to its claimed
  /// width and shifted into its bit range. Zero iff no consumer wants the
  /// update.
  uint64_t DriverRouteMask(const Hyperedge& e) const {
    uint64_t word = 0;
    for (const Consumer& c : consumers_) {
      const uint64_t mask = c.route(c.sketch, e) & WidthMask(c.bits);
      word |= mask << c.shift;
    }
    return word;
  }

  /// Fan one vertex batch out to every consumer, in registration order.
  /// Safe to call concurrently for distinct vertices (applier sharding):
  /// the rebuild scratch is thread-local.
  void ApplyUpdateBatch(size_t thr_id, VertexId v,
                        std::span<const VertexUpdate> batch) {
    for (const Consumer& c : consumers_) {
      c.apply(c.sketch, thr_id, v, batch, c.shift, c.bits);
    }
  }

  bool DriverSupported() const { return true; }

  /// Inline serial ingest: the driver's reader logic (one encode +
  /// PrepareCoord + packed route per update), per-epoch staging grouped by
  /// vertex, and direct batch fan-out, all on the calling thread -- no
  /// pool, no hand-off, safe inside a parallel region. Bit-identical to
  /// per-consumer serial ingest.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream) {
    Process(std::span<const StreamUpdate>(stream.updates()));
  }

  /// Parallel ingest through the gutter driver (readers prepare once for
  /// ALL consumers; appliers own vertex shards across ALL consumers).
  DriverStats Drive(std::span<const StreamUpdate> updates,
                    const GutterDriverParams& params) {
    return DriveStream(this, updates, params);
  }

 private:
  struct Consumer {
    void* sketch = nullptr;
    uint32_t shift = 0;
    uint32_t bits = 1;
    uint64_t (*route)(const void*, const Hyperedge&) = nullptr;
    void (*apply)(void*, size_t, VertexId, std::span<const VertexUpdate>,
                  uint32_t, uint32_t) = nullptr;
  };

  static constexpr uint64_t WidthMask(uint32_t bits) {
    return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  }

  /// The per-consumer batch rebuild scratch; thread-local so concurrent
  /// appliers (distinct thr_id, distinct vertices) never share it.
  static std::vector<VertexUpdate>& RebuildScratch();

  template <typename Sketch>
  static void ApplyThunk(void* p, size_t thr_id, VertexId v,
                         std::span<const VertexUpdate> batch, uint32_t shift,
                         uint32_t bits) {
    auto* sketch = static_cast<Sketch*>(p);
    const uint64_t mask = WidthMask(bits);
    if (bits == 1) {
      // Pass-through fast path: when every entry routes here (always true
      // for constant-mask consumers sharing a plane, since an entry routed
      // NOWHERE never reaches the gutters), hand the original batch over
      // without copying. The entries still carry other consumers' bits
      // above bit 0 -- the one-bit consumer contract says to ignore them.
      bool all = true;
      for (const VertexUpdate& u : batch) {
        if (((u.route >> shift) & 1) == 0) {
          all = false;
          break;
        }
      }
      if (all) {
        sketch->ApplyUpdateBatch(thr_id, v, batch);
        return;
      }
    }
    std::vector<VertexUpdate>& scratch = RebuildScratch();
    scratch.clear();
    for (const VertexUpdate& u : batch) {
      const uint64_t route = (u.route >> shift) & mask;
      if (route != 0) scratch.push_back(VertexUpdate{u.pc, route, u.coeff});
    }
    if (!scratch.empty()) {
      sketch->ApplyUpdateBatch(
          thr_id, v, std::span<const VertexUpdate>(scratch));
    }
  }

  size_t n_ = 0;
  const EdgeCodec* codec_ = nullptr;
  size_t bits_used_ = 0;
  std::vector<Consumer> consumers_;
  /// Reused across inline Process calls (the serving layer drives one
  /// plane per epoch chunk; re-growing the buffers per chunk would
  /// dominate small chunks).
  GutterStage stage_;
  std::vector<VertexUpdate> batch_;
};

}  // namespace gms

#endif  // GMS_STREAM_INGEST_PLANE_H_
