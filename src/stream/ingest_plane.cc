#include "stream/ingest_plane.h"

#include <algorithm>

namespace gms {

std::vector<VertexUpdate>& IngestPlane::RebuildScratch() {
  static thread_local std::vector<VertexUpdate> scratch;
  return scratch;
}

void IngestPlane::Process(std::span<const StreamUpdate> updates) {
  if (consumers_.empty() || updates.empty()) return;
  const EdgeCodec& codec = *codec_;
  for (size_t begin = 0; begin < updates.size();
       begin += kDefaultEpochUpdates) {
    const std::span<const StreamUpdate> epoch = updates.subspan(
        begin, std::min(kDefaultEpochUpdates, updates.size() - begin));
    stage_.Clear(epoch.size(), codec.max_rank());
    for (const StreamUpdate& u : epoch) {
      GMS_CHECK_MSG(u.edge.size() <= codec.max_rank(),
                    "hyperedge exceeds max_rank");
      const uint64_t route = DriverRouteMask(u.edge);
      if (route == 0) continue;  // no consumer wants it
      stage_.Add(u.edge, PrepareCoord(codec.Encode(u.edge)), route, u.delta);
    }
    stage_.Seal(n_);
    stage_.ForEachBatch(0, n_, kDefaultGutterCapacity, &batch_,
                        [this](VertexId v, std::span<const VertexUpdate> b) {
                          ApplyUpdateBatch(/*thr_id=*/0, v, b);
                        });
  }
}

}  // namespace gms
