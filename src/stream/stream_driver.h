// The gutter driver: reader/applier-decoupled batched ingestion
// (DESIGN.md §11; third parallelism axis, IngestMode::kGutterDriver).
//
// Readers and appliers split the work of one Process(span) call in
// fixed-length epochs:
//
//   reader r owns stream slice ShardOf(|updates|, r, readers). For each
//     epoch of its slice it encodes and prepares every update ONCE (the
//     codec rank, key fold, and exponent reduction are shape-independent),
//     asks the sketch for the update's routing mask, stages one entry per
//     endpoint (stream/gutters.h), and seals the stage -- a stable radix
//     sort that groups the epoch's entries by destination vertex. It then
//     publishes the stage and starts the next epoch into its second stage
//     (double buffering: reading epoch k+1 overlaps applying epoch k, and
//     reader memory stays bounded by two epochs).
//
//   applier a owns vertex range ShardOf(n, a, appliers). Once every
//     reader has published epoch k, it walks its vertex range in each
//     reader's stage and replays every vertex's entries, in batches of at
//     most gutter_capacity, over the vertex's contiguous sketch block via
//     ApplyUpdateBatch -- the block (all rounds of one vertex) is
//     kilobytes, so a batch of updates against it runs out of cache
//     instead of paying a DRAM round-trip per update like the
//     random-vertex column path does.
//
// The hand-off is one publication per (reader, epoch) and one completion
// per (applier, epoch) under a single mutex: nothing is allocated per
// vertex or synchronized per batch.
//
// Determinism: the final state is BIT-IDENTICAL to the serial per-update
// path for every (readers, appliers) setting. Every cell is a sum over
// exact field ops (wrapping int64 weights, mod-2^128 index sums,
// canonical mod-(2^61-1) fingerprints), all commutative and associative
// with no rounding, and the dirty/level summaries are monotone bitwise
// ORs -- so no interleaving of batches can change a single output bit.
// The hand-off order is itself fixed: an applier drains epoch k reader by
// reader, each stage in increasing vertex order, so even
// schedule-sensitive observables (the batches each applier sees, the
// stats meters) are reproducible functions of the stream.
//
// Sketch concept (the unified mergeable-sketch API grows these members):
//   size_t n() const;
//   const EdgeCodec& codec() const;
//   uint64_t DriverRouteMask(const Hyperedge& e) const;   // 0 = skip update
//   void ApplyUpdateBatch(size_t thr_id, VertexId v,
//                         std::span<const VertexUpdate> batch);
//
// Vertex ownership makes the parallel apply safe without locks: all of a
// vertex's arena columns and (vertex-major) level-mask words are touched
// by exactly one applier. The one shared structure is the ROUND-major
// dirty bitmap, whose words pack 64 vertex ordinals; ApplyUpdateBatch
// marks those with a relaxed atomic OR (order-independent, hence still
// deterministic).
#ifndef GMS_STREAM_STREAM_DRIVER_H_
#define GMS_STREAM_STREAM_DRIVER_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "graph/edge_codec.h"
#include "stream/gutters.h"
#include "stream/stream.h"
#include "util/check.h"
#include "util/parallel.h"

namespace gms {

/// Default entries per applied batch: a vertex's staged entries reach
/// ApplyUpdateBatch in batches of at most this many. 64 entries make a
/// ~4 KiB batch: large enough to reuse the hot level-0 cells of the target
/// column several times, small enough to stay in L1 beside them.
inline constexpr size_t kDefaultGutterCapacity = 64;

/// Default reader epoch length, in stream updates. Larger epochs coalesce
/// more updates per vertex (fewer column walks per update); the cap keeps
/// a reader's two stages bounded by
/// 2 * epoch * (64 + 8 * max_rank) bytes regardless of stream length.
inline constexpr size_t kDefaultEpochUpdates = 1 << 18;

struct GutterDriverParams {
  /// Applier threads; applier a exclusively owns ShardOf(n, a, appliers).
  size_t appliers = 1;
  /// Reader threads; reader r owns stream slice ShardOf(m, r, readers).
  size_t readers = 1;
  size_t gutter_capacity = kDefaultGutterCapacity;
  size_t epoch_updates = kDefaultEpochUpdates;
  /// Test-only fault injection (testkit FaultHook): a batch for vertex v
  /// with `size` entries is dropped WHOLE when this returns true, and
  /// DriverStats counts all `size` entries as lost -- simulating a
  /// batch-granular decode failure on the apply path.
  std::function<bool(VertexId, size_t)> drop_batch;
  /// Serving hook: invoked by a READER thread right after it publishes an
  /// epoch's sealed stage, with (reader id, stream updates that reader has
  /// consumed so far). This marks a reader-side boundary only -- the
  /// staged entries are not yet applied -- so it is an observability /
  /// pacing signal (the serving layer seals its own deltas; see
  /// src/serve/), not an applied-prefix barrier. May fire concurrently on
  /// different readers.
  std::function<void(size_t, uint64_t)> on_epoch;
};

/// Meters for one DriveStream call (summed over readers and appliers).
struct DriverStats {
  uint64_t updates = 0;          // stream updates consumed by readers
  uint64_t entries = 0;          // per-endpoint entries staged
  uint64_t batches = 0;          // vertex batches appliers replayed/dropped
  uint64_t epochs = 0;           // reader epochs staged (incl. final partial)
  uint64_t dropped_batches = 0;  // batches withheld by drop_batch
  uint64_t dropped_updates = 0;  // entries lost to dropped batches (N per
                                 // batch, never 1)

  void Accumulate(const DriverStats& o) {
    updates += o.updates;
    entries += o.entries;
    batches += o.batches;
    epochs += o.epochs;
    dropped_batches += o.dropped_batches;
    dropped_updates += o.dropped_updates;
  }
};

/// True when a Process(span) call should take the gutter-driver path:
/// opted in and not already inside a parallel region (a nested call --
/// e.g. a sharded-merge clone's Process -- ingests serially instead of
/// recursing into a second pool occupation).
inline bool UseGutterDriver(const EngineParams& engine, size_t num_updates) {
  return engine.mode == IngestMode::kGutterDriver && num_updates > 0 &&
         !ThreadPool::InParallelRegion();
}

/// Resolve the engine knobs into driver params: `threads` is the applier
/// count (the scaling axis the bench sweeps); readers default to a
/// quarter of that (preparation is cheap next to cell application) and
/// are overridable via EngineParams::driver_readers.
inline GutterDriverParams DriverParamsFromEngine(const EngineParams& engine) {
  GutterDriverParams p;
  p.appliers = std::max<size_t>(1, engine.threads);
  p.readers = engine.driver_readers != 0
                  ? engine.driver_readers
                  : std::max<size_t>(1, p.appliers / 4);
  if (engine.driver_gutter_capacity != 0) {
    p.gutter_capacity = engine.driver_gutter_capacity;
  }
  return p;
}

/// Run the full reader/applier pipeline over `num_updates` records into
/// *sketch, pulling each record through `get`: a callable
///
///   const StreamUpdate& get(uint64_t j, StreamUpdate* scratch)
///
/// returning record j, either by reference into backing storage (span
/// sources ignore `scratch`) or by decoding into *scratch and returning
/// *scratch (disk sources; see workload/binary_stream.h). `get` is called
/// concurrently from several reader threads but never twice for the same
/// j, and each reader passes its own scratch -- so a decoding source needs
/// no locking. Blocks until every batch is applied; the sketch is then in
/// the exact state the serial per-update path would produce. Occupies the
/// shared pool with readers + appliers workers for the duration (nested
/// sketch dispatch inside degrades serial, like every other engine path).
template <typename Sketch, typename GetUpdate>
DriverStats DriveStreamRecords(Sketch* sketch, uint64_t num_updates,
                               GetUpdate&& get,
                               const GutterDriverParams& params) {
  DriverStats total;
  if (num_updates == 0) return total;
  const size_t n = sketch->n();
  const size_t appliers = std::max<size_t>(1, params.appliers);
  const size_t readers = std::max<size_t>(1, params.readers);
  const size_t gutter_cap =
      params.gutter_capacity != 0 ? params.gutter_capacity : size_t{1};
  const uint64_t epoch = params.epoch_updates != 0
                             ? params.epoch_updates
                             : kDefaultEpochUpdates;
  const EdgeCodec& codec = sketch->codec();

  // Every reader runs as many epochs as the longest slice needs, so epoch
  // k is complete once every reader has published it (a shorter slice
  // publishes an empty last stage).
  const uint64_t longest_slice = (num_updates + readers - 1) / readers;
  const uint64_t epochs = (longest_slice + epoch - 1) / epoch;

  // Reader r stages epoch k into stages[2r + k % 2]; the slot is free
  // again once every applier has drained epoch k - 2 from it.
  std::vector<GutterStage> stages(2 * readers);
  std::mutex mu;
  std::condition_variable staged_cv;   // appliers wait for publications
  std::condition_variable drained_cv;  // readers wait for free slots
  std::vector<uint64_t> published(readers, 0);  // epochs reader r staged
  std::vector<uint64_t> drained(appliers, 0);   // epochs applier a applied

  auto reader_loop = [&](size_t r) {
    DriverStats local;
    const ShardRange slice = ShardOf(num_updates, r, readers);
    StreamUpdate scratch;
    uint64_t begin = slice.begin;
    for (uint64_t k = 0; k < epochs; ++k) {
      if (k >= 2) {
        std::unique_lock<std::mutex> lock(mu);
        drained_cv.wait(lock, [&] {
          return *std::min_element(drained.begin(), drained.end()) >= k - 1;
        });
      }
      const uint64_t end = std::min<uint64_t>(slice.end, begin + epoch);
      GutterStage& stage = stages[2 * r + (k & 1)];
      stage.Clear(end - begin, codec.max_rank());
      for (uint64_t j = begin; j < end; ++j) {
        const StreamUpdate& u = get(j, &scratch);
        GMS_CHECK_MSG(u.edge.size() <= codec.max_rank(),
                      "hyperedge exceeds max_rank");
        const uint64_t route = sketch->DriverRouteMask(u.edge);
        if (route == 0) continue;  // e.g. kept by no subsample
        stage.Add(u.edge, PrepareCoord(codec.Encode(u.edge)), route,
                  u.delta);
      }
      stage.Seal(n);
      local.updates += end - begin;
      local.entries += stage.entries();
      {
        std::lock_guard<std::mutex> lock(mu);
        published[r] = k + 1;
      }
      staged_cv.notify_all();
      if (begin < end) {
        ++local.epochs;
        if (params.on_epoch) params.on_epoch(r, local.updates);
      }
      begin = end;
    }
    std::lock_guard<std::mutex> lock(mu);
    total.Accumulate(local);
  };

  auto applier_loop = [&](size_t a) {
    DriverStats local;
    const ShardRange own = ShardOf(n, a, appliers);
    std::vector<VertexUpdate> batch;
    const auto apply = [&](VertexId v, std::span<const VertexUpdate> b) {
      if (params.drop_batch && params.drop_batch(v, b.size())) {
        ++local.dropped_batches;
        local.dropped_updates += b.size();
        return;
      }
      sketch->ApplyUpdateBatch(a, v, b);
    };
    for (uint64_t k = 0; k < epochs; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        staged_cv.wait(lock, [&] {
          return *std::min_element(published.begin(), published.end()) > k;
        });
      }
      for (size_t r = 0; r < readers; ++r) {
        local.batches += stages[2 * r + (k & 1)].ForEachBatch(
            own.begin, own.end, gutter_cap, &batch, apply);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        drained[a] = k + 1;
      }
      drained_cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu);
    total.Accumulate(local);
  };

  ThreadPool::Shared().Run(readers + appliers, [&](size_t s) {
    if (s < readers) {
      reader_loop(s);
    } else {
      applier_loop(s - readers);
    }
  });
  return total;
}

/// The in-memory source: drive a materialized update span through the
/// pipeline (the record getter is a span index).
template <typename Sketch>
DriverStats DriveStream(Sketch* sketch, std::span<const StreamUpdate> updates,
                        const GutterDriverParams& params) {
  return DriveStreamRecords(
      sketch, updates.size(),
      [updates](uint64_t j, StreamUpdate*) -> const StreamUpdate& {
        return updates[j];
      },
      params);
}

}  // namespace gms

#endif  // GMS_STREAM_STREAM_DRIVER_H_
