// Tests for the dynamic stream model and its builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.h"
#include "stream/gutters.h"
#include "stream/stream.h"
#include "util/random.h"

namespace gms {
namespace {

TEST(StreamTest, InsertOnlyMaterializesTheGraph) {
  Graph g = ErdosRenyi(20, 0.3, 1);
  DynamicStream s = DynamicStream::InsertOnly(g, 2);
  EXPECT_TRUE(s.Validate());
  EXPECT_EQ(s.size(), g.NumEdges());
  Hypergraph back = s.Materialize(20);
  EXPECT_EQ(back.ToGraph(), g);
}

TEST(StreamTest, InsertOnlyOrderIsSeeded) {
  Graph g = ErdosRenyi(20, 0.3, 1);
  DynamicStream a = DynamicStream::InsertOnly(g, 7);
  DynamicStream b = DynamicStream::InsertOnly(g, 7);
  DynamicStream c = DynamicStream::InsertOnly(g, 8);
  EXPECT_EQ(a.updates(), b.updates());
  EXPECT_NE(a.updates(), c.updates());
}

TEST(StreamTest, ChurnLeavesFinalGraphIntact) {
  Graph g = CycleGraph(15);
  DynamicStream s = DynamicStream::WithChurn(g, /*decoys=*/50, /*seed=*/3);
  EXPECT_TRUE(s.Validate());
  EXPECT_EQ(s.size(), g.NumEdges() + 2 * 50);
  EXPECT_EQ(s.Materialize(15).ToGraph(), g);
}

TEST(StreamTest, ChurnHasInterleavedDeletes) {
  Graph g = CycleGraph(10);
  DynamicStream s = DynamicStream::WithChurn(g, 30, 4);
  bool saw_delete_before_end = false;
  for (size_t i = 0; i + 30 < s.size(); ++i) {
    if (s.updates()[i].delta < 0) saw_delete_before_end = true;
  }
  EXPECT_TRUE(saw_delete_before_end);
}

TEST(StreamTest, ChurnReportsAchievedDecoys) {
  // Sparse input: every requested decoy exists, and the out-param says so.
  Graph sparse = CycleGraph(12);
  size_t achieved = 999;
  DynamicStream s =
      DynamicStream::WithChurn(sparse, /*decoys=*/20, /*seed=*/7, &achieved);
  EXPECT_EQ(achieved, 20u);
  EXPECT_EQ(s.size(), sparse.NumEdges() + 2 * achieved);

  // Complete input: no absent edge exists, so the sampler must come up
  // empty and REPORT it instead of silently under-delivering.
  Graph dense = CompleteGraph(6);
  DynamicStream d =
      DynamicStream::WithChurn(dense, /*decoys=*/10, /*seed=*/8, &achieved);
  EXPECT_EQ(achieved, 0u);
  EXPECT_EQ(d.size(), dense.NumEdges());
  EXPECT_TRUE(d.Validate());
}

TEST(StreamTest, HypergraphChurn) {
  Hypergraph h = HyperCycle(12, 3);
  DynamicStream s = DynamicStream::WithChurn(h, 40, 3, 9);
  EXPECT_TRUE(s.Validate());
  EXPECT_EQ(s.Materialize(12), h);
}

TEST(StreamTest, InsertThenDeleteDown) {
  Graph full = CompleteGraph(8);
  Graph target = CycleGraph(8);
  DynamicStream s = DynamicStream::InsertThenDeleteDown(
      Hypergraph::FromGraph(full), Hypergraph::FromGraph(target), 5);
  EXPECT_TRUE(s.Validate());
  EXPECT_EQ(s.Materialize(8).ToGraph(), target);
  EXPECT_EQ(s.size(), full.NumEdges() + (full.NumEdges() - target.NumEdges()));
}

TEST(StreamTest, ValidateCatchesDoubleInsert) {
  DynamicStream s;
  s.Push(Hyperedge{0, 1}, +1);
  s.Push(Hyperedge{0, 1}, +1);
  EXPECT_FALSE(s.Validate());
}

TEST(StreamTest, ValidateCatchesDeleteBeforeInsert) {
  DynamicStream s;
  s.Push(Hyperedge{0, 1}, -1);
  EXPECT_FALSE(s.Validate());
}

// The epoch stage must hand every vertex its entries in stream order, in
// increasing vertex order, cut into batches of at most `cap`, with the
// Section 4.1 coefficient of each endpoint -- across one, two and three
// radix passes (n = 2^11, 5000, 2^23).
TEST(GutterStageTest, SealGroupsByVertexInStreamOrder) {
  constexpr size_t kPool = 64;  // distinct vertices, so vertices repeat
  for (const size_t n : {size_t{1} << 11, size_t{5000}, size_t{1} << 23}) {
    const size_t stride = n / kPool;  // pool slot i is vertex i * stride
    Rng rng(n);
    struct Want {
      uint64_t index;
      int64_t coeff;
    };
    std::vector<std::vector<Want>> want(kPool);
    GutterStage stage;
    stage.Clear(/*updates=*/0, /*max_rank=*/3);
    for (uint64_t j = 0; j < 3000; ++j) {
      std::vector<VertexId> vs;  // rank 2 or 3
      while (vs.size() < 2 + j % 2) {
        const VertexId v = static_cast<VertexId>(rng.Below(kPool) * stride);
        if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
      }
      const Hyperedge e(vs);
      const int delta = j % 3 == 0 ? -1 : 1;
      stage.Add(e, PrepareCoord(j), /*route=*/j + 1, delta);
      const int64_t head = static_cast<int64_t>(e.size()) - 1;
      for (size_t pos = 0; pos < e.size(); ++pos) {
        want[e[pos] / stride].push_back({j, (pos == 0 ? head : -1) * delta});
      }
    }
    ASSERT_EQ(stage.entries(), 7500u);
    stage.Seal(n);

    std::vector<VertexUpdate> scratch;
    std::vector<size_t> seen(kPool, 0);
    int64_t last = -1;
    const uint64_t batches = stage.ForEachBatch(
        0, n, /*cap=*/5, &scratch,
        [&](VertexId v, std::span<const VertexUpdate> batch) {
          ASSERT_EQ(v % stride, 0u);
          ASSERT_GE(static_cast<int64_t>(v), last) << "n=" << n;
          last = v;
          ASSERT_LE(batch.size(), 5u);
          const size_t slot = v / stride;
          for (const VertexUpdate& u : batch) {
            ASSERT_LT(seen[slot], want[slot].size());
            const Want& w = want[slot][seen[slot]++];
            EXPECT_EQ(static_cast<uint64_t>(u.pc.index), w.index);
            EXPECT_EQ(u.route, w.index + 1);
            EXPECT_EQ(u.coeff, w.coeff);
          }
        });
    uint64_t want_batches = 0;
    for (size_t slot = 0; slot < kPool; ++slot) {
      EXPECT_EQ(seen[slot], want[slot].size()) << "n=" << n;
      want_batches += (want[slot].size() + 4) / 5;
    }
    EXPECT_EQ(batches, want_batches);

    // A sub-range visits exactly the vertices inside it.
    const uint64_t mid = (kPool / 2) * stride;
    size_t sub = 0;
    stage.ForEachBatch(mid, n, 5, &scratch,
                       [&](VertexId v, std::span<const VertexUpdate> batch) {
                         EXPECT_GE(v, mid);
                         sub += batch.size();
                       });
    size_t want_sub = 0;
    for (size_t slot = kPool / 2; slot < kPool; ++slot) {
      want_sub += want[slot].size();
    }
    EXPECT_EQ(sub, want_sub);
  }
}

}  // namespace
}  // namespace gms
