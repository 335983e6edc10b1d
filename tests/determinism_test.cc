// Determinism suite for the parallel ingestion / extraction engine: for
// every sketch container that shards work across threads, the state after
// batched parallel Process and the decoded output must be BIT-IDENTICAL to
// the serial per-update path, for threads in {1, 2, 8}. This is the
// enforceable contract of util/parallel.h (sharded ownership + linearity),
// and under the `tsan` preset it doubles as the engine's data-race test.
#include <gtest/gtest.h>

#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/stream.h"
#include "stream/stream_driver.h"
#include "testkit/stream_spec.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 8};

// A churn graph stream (inserts + decoy insert/delete pairs) over a
// moderately dense graph: deletions exercise the linear cancellation path.
DynamicStream GraphStream(size_t n, uint64_t seed) {
  Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  return DynamicStream::WithChurn(g, /*decoys=*/2 * n, seed + 1);
}

DynamicStream HypergraphStream(size_t n, size_t r, uint64_t seed) {
  Hypergraph g = HyperCycle(n, r);
  return DynamicStream::WithChurn(g, /*decoys=*/n, r, seed + 1);
}

TEST(DeterminismTest, SpanningForestProcessMatchesSerialUpdates) {
  constexpr size_t kN = 96;
  constexpr uint64_t kSeed = 77;
  DynamicStream stream = GraphStream(kN, kSeed);

  const ForestSketchParams serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SpanningForestSketch serial(kN, /*max_rank=*/2, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_span = serial.ExtractSpanningGraph();
  ASSERT_TRUE(serial_span.ok());

  for (size_t threads : kThreadSweep) {
    const ForestSketchParams params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    SpanningForestSketch parallel(kN, 2, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;

    auto span = parallel.ExtractSpanningGraph();
    ASSERT_TRUE(span.ok()) << "threads=" << threads;
    EXPECT_TRUE(span.value() == serial_span.value()) << "threads=" << threads;
    // Decoding the SERIAL sketch with a parallel worker sweep must also be
    // byte-for-byte the same hypergraph (extraction-side determinism).
    auto reread = serial.ExtractSpanningGraph(threads);
    ASSERT_TRUE(reread.ok());
    EXPECT_TRUE(reread.value() == serial_span.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SpanningForestHypergraphStreams) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 31;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const ForestSketchParams serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SpanningForestSketch serial(kN, /*max_rank=*/3, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_span = serial.ExtractSpanningGraph();
  ASSERT_TRUE(serial_span.ok());

  for (size_t threads : kThreadSweep) {
    const ForestSketchParams params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    SpanningForestSketch parallel(kN, 3, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto span = parallel.ExtractSpanningGraph();
    ASSERT_TRUE(span.ok());
    EXPECT_TRUE(span.value() == serial_span.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SubsampledForestUnionBitIdentical) {
  constexpr size_t kN = 80;
  constexpr uint64_t kSeed = 5;
  DynamicStream stream = GraphStream(kN, kSeed);

  const ForestSketchParams forest =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SubsampledForestUnion serial(kN, /*k=*/2, /*r_subgraphs=*/12, kSeed, forest);
  for (const auto& u : stream.updates()) {
    serial.Update(Edge(u.edge[0], u.edge[1]), u.delta);
  }
  auto serial_h = serial.BuildUnionGraph();
  ASSERT_TRUE(serial_h.ok());

  for (size_t threads : kThreadSweep) {
    SubsampledForestUnion parallel(
        kN, 2, 12, kSeed, forest,
        EngineParams::Builder().Threads(threads).Build());
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto h = parallel.BuildUnionGraph();
    ASSERT_TRUE(h.ok()) << "threads=" << threads;
    EXPECT_TRUE(h.value() == serial_h.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, KSkeletonHypergraphBitIdentical) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 13;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const SpanningForestSketch::Params serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  KSkeletonSketch serial(kN, /*max_rank=*/3, /*k=*/3, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_skel = serial.Extract();
  ASSERT_TRUE(serial_skel.ok());

  for (size_t threads : kThreadSweep) {
    const SpanningForestSketch::Params params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    KSkeletonSketch parallel(kN, 3, 3, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto skel = parallel.Extract();
    ASSERT_TRUE(skel.ok()) << "threads=" << threads;
    EXPECT_TRUE(skel.value() == serial_skel.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SparsifierBitIdentical) {
  constexpr size_t kN = 32;
  constexpr uint64_t kSeed = 21;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const SparsifierParams serial_params =
      SparsifierParams::Builder()
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Levels(6)
          .K(4)
          .Build();
  HypergraphSparsifierSketch serial(kN, /*max_rank=*/3, serial_params, kSeed);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_out = serial.ExtractSparsifier();
  ASSERT_TRUE(serial_out.ok());

  for (size_t threads : kThreadSweep) {
    const SparsifierParams params =
        SparsifierParams::Builder(serial_params).Threads(threads).Build();
    HypergraphSparsifierSketch parallel(kN, 3, params, kSeed);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto out = parallel.ExtractSparsifier();
    ASSERT_TRUE(out.ok()) << "threads=" << threads;
    EXPECT_EQ(out.value().level_sizes, serial_out.value().level_sizes);
    EXPECT_EQ(out.value().sparsifier.edges, serial_out.value().sparsifier.edges);
    EXPECT_EQ(out.value().sparsifier.weights,
              serial_out.value().sparsifier.weights);
  }
}

TEST(DeterminismTest, HyperVcQueryBitIdentical) {
  constexpr size_t kN = 36;
  constexpr uint64_t kSeed = 9;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const VcQueryParams serial_params =
      VcQueryParams::Builder()
          .K(2)
          .ExplicitR(10)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  HyperVcQuerySketch serial(kN, /*max_rank=*/3, serial_params, kSeed);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_snap = serial.Query();
  ASSERT_TRUE(serial_snap.ok());

  for (size_t threads : kThreadSweep) {
    const VcQueryParams params =
        VcQueryParams::Builder(serial_params).Threads(threads).Build();
    HyperVcQuerySketch parallel(kN, 3, params, kSeed);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto snap = parallel.Query();
    ASSERT_TRUE(snap.ok()) << "threads=" << threads;
    EXPECT_TRUE(snap.value().union_graph() == serial_snap.value().union_graph())
        << "threads=" << threads;
    for (VertexId v = 0; v < 6; ++v) {
      auto a = serial_snap.value().Disconnects({v});
      auto b = snap.value().Disconnects({v});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "threads=" << threads << " v=" << v;
    }
  }
}

TEST(DeterminismTest, VcQuerySketchEndToEnd) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 3;
  Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN, kSeed + 1);

  const VcQueryParams serial_params =
      VcQueryParams::Builder()
          .K(2)
          .ExplicitR(12)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  VcQuerySketch serial(kN, serial_params, kSeed);
  for (const auto& u : stream.updates()) {
    serial.Update(Edge(u.edge[0], u.edge[1]), u.delta);
  }
  auto serial_snap = serial.Query();
  ASSERT_TRUE(serial_snap.ok());

  for (size_t threads : kThreadSweep) {
    const VcQueryParams params =
        VcQueryParams::Builder(serial_params).Threads(threads).Build();
    VcQuerySketch parallel(kN, params, kSeed);
    parallel.Process(stream);
    auto snap = parallel.Query();
    ASSERT_TRUE(snap.ok()) << "threads=" << threads;
    EXPECT_TRUE(snap.value().union_graph() == serial_snap.value().union_graph())
        << "threads=" << threads;
    for (VertexId v = 0; v < 8; ++v) {
      auto a = serial_snap.value().Disconnects({v});
      auto b = snap.value().Disconnects({v});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "threads=" << threads << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Gutter-driver matrix: serial per-update ingest vs the stream driver at
// every readers x appliers split from {1, 2, 8}, across the three churn
// families. Equality is checked at the strongest level available -- the
// serialized wire frame, byte for byte -- so any divergence in cells, level
// masks, or header metadata fails loudly. Under the `tsan` preset this is
// also the driver's data-race test (epoch hand-off, concurrent appliers,
// and the shared round-major dirty words all get exercised).
// ---------------------------------------------------------------------------

constexpr size_t kDriverSplit[] = {1, 2, 8};
constexpr testkit::Churn kDriverChurn[] = {testkit::Churn::kInsertOnly,
                                           testkit::Churn::kWithChurn,
                                           testkit::Churn::kDeleteDown};

// Engine running the gutter driver with an explicit reader/applier split
// and a tiny gutter capacity so a vertex's entries are cut into several
// batches even on test-sized streams.
EngineParams DriverEngine(size_t readers, size_t appliers) {
  return EngineParams::Builder()
      .Threads(appliers)
      .Mode(IngestMode::kGutterDriver)
      .DriverReaders(readers)
      .DriverGutterCapacity(4)
      .Build();
}

std::vector<uint8_t> Frame(const SpanningForestSketch& s) {
  std::vector<uint8_t> out;
  s.Serialize(&out);
  return out;
}

TEST(DeterminismTest, GutterDriverMatrixBitIdentical) {
  constexpr uint64_t kSeed = 101;
  for (testkit::Churn churn : kDriverChurn) {
    testkit::StreamSpec spec;
    spec.family = testkit::Family::kExpander;
    spec.n = 72;
    spec.k = 3;
    spec.gseed = 11;
    spec.churn = churn;
    spec.decoys = 96;
    spec.sseed = 19;
    testkit::BuiltStream built = spec.Build();

    const ForestSketchParams serial_params =
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
    SpanningForestSketch serial(spec.n, /*max_rank=*/2, kSeed, serial_params);
    for (const auto& u : built.stream.updates()) serial.Update(u.edge, u.delta);
    const std::vector<uint8_t> serial_frame = Frame(serial);
    auto serial_span = serial.ExtractSpanningGraph();
    ASSERT_TRUE(serial_span.ok());

    for (size_t readers : kDriverSplit) {
      for (size_t appliers : kDriverSplit) {
        const ForestSketchParams params =
            ForestSketchParams::Builder(serial_params)
                .Engine(DriverEngine(readers, appliers))
                .Build();
        SpanningForestSketch driver(spec.n, 2, kSeed, params);
        driver.Process(built.stream);
        const std::string where = testkit::ChurnName(churn) +
                                  std::string(" readers=") +
                                  std::to_string(readers) +
                                  " appliers=" + std::to_string(appliers);
        EXPECT_TRUE(driver.StateEquals(serial)) << where;
        EXPECT_EQ(Frame(driver), serial_frame) << where;
        auto span = driver.ExtractSpanningGraph();
        ASSERT_TRUE(span.ok()) << where;
        EXPECT_TRUE(span.value() == serial_span.value()) << where;
      }
    }
  }
}

// Streams longer than one reader epoch: with 7-update epochs every reader
// double-buffers many stages, so readers run ahead into their second stage
// while appliers drain the first, and slices of unequal length publish
// empty last stages. Frames must still match serial byte for byte, and the
// meters and the on_epoch hook must count exactly the epochs each slice
// needs.
TEST(DeterminismTest, GutterDriverMultiEpochBitIdentical) {
  constexpr uint64_t kSeed = 103;
  constexpr size_t kEpoch = 7;
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kExpander;
  spec.n = 72;
  spec.k = 3;
  spec.gseed = 13;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 96;
  spec.sseed = 23;
  testkit::BuiltStream built = spec.Build();
  const std::span<const StreamUpdate> updates(built.stream.updates());

  const ForestSketchParams params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SpanningForestSketch serial(spec.n, /*max_rank=*/2, kSeed, params);
  for (const auto& u : updates) serial.Update(u.edge, u.delta);
  const std::vector<uint8_t> serial_frame = Frame(serial);

  for (size_t readers : kDriverSplit) {
    for (size_t appliers : kDriverSplit) {
      const std::string where = "readers=" + std::to_string(readers) +
                                " appliers=" + std::to_string(appliers);
      uint64_t want_epochs = 0;
      for (size_t r = 0; r < readers; ++r) {
        const ShardRange slice = ShardOf(updates.size(), r, readers);
        want_epochs += (slice.end - slice.begin + kEpoch - 1) / kEpoch;
      }
      std::vector<std::atomic<uint64_t>> consumed(readers);
      std::atomic<uint64_t> hook_calls{0};
      GutterDriverParams dp;
      dp.readers = readers;
      dp.appliers = appliers;
      dp.gutter_capacity = 4;
      dp.epoch_updates = kEpoch;
      dp.on_epoch = [&](size_t r, uint64_t so_far) {
        hook_calls.fetch_add(1);
        consumed[r].store(so_far);
      };
      SpanningForestSketch driver(spec.n, 2, kSeed, params);
      const DriverStats stats = DriveStream(&driver, updates, dp);
      EXPECT_EQ(Frame(driver), serial_frame) << where;
      EXPECT_EQ(stats.updates, updates.size()) << where;
      EXPECT_EQ(stats.entries, 2 * updates.size()) << where;
      EXPECT_EQ(stats.epochs, want_epochs) << where;
      EXPECT_EQ(hook_calls.load(), want_epochs) << where;
      EXPECT_GE(stats.batches, stats.entries / 4) << where;
      EXPECT_EQ(stats.dropped_batches, 0u) << where;
      for (size_t r = 0; r < readers; ++r) {
        const ShardRange slice = ShardOf(updates.size(), r, readers);
        EXPECT_EQ(consumed[r].load(), slice.end - slice.begin) << where;
      }
    }
  }
}

// Every container the driver routes through, at one representative split
// (2 readers x 2 appliers), against its serial per-update state -- again
// at serialized-frame strength. The hypergraph stream exercises rank-3
// incidence coefficients (head coefficient |e|-1 = 2, tails -1).
TEST(DeterminismTest, GutterDriverRoutedContainersBitIdentical) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 57;
  DynamicStream graph_stream = GraphStream(kN, kSeed);
  DynamicStream hyper_stream = HypergraphStream(kN, /*r=*/3, kSeed);
  const EngineParams engine = DriverEngine(/*readers=*/2, /*appliers=*/2);

  {  // K-skeleton (hypergraph).
    const SpanningForestSketch::Params params =
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
    KSkeletonSketch serial(kN, /*max_rank=*/3, /*k=*/3, kSeed, params);
    for (const auto& u : hyper_stream.updates()) serial.Update(u.edge, u.delta);
    KSkeletonSketch driver(
        kN, 3, 3, kSeed,
        ForestSketchParams::Builder(params).Engine(engine).Build());
    driver.Process(hyper_stream);
    EXPECT_TRUE(driver.StateEquals(serial));
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    driver.Serialize(&b);
    EXPECT_EQ(a, b) << "k-skeleton driver frame diverges";
  }
  {  // Vertex-connectivity query union (graph, subsample routing bits).
    const VcQueryParams params =
        VcQueryParams::Builder()
            .K(2)
            .ExplicitR(12)
            .Forest(ForestSketchParams::Builder()
                        .Config(SketchConfig::Light())
                        .Build())
            .Build();
    VcQuerySketch serial(kN, params, kSeed);
    for (const auto& u : graph_stream.updates()) {
      serial.Update(Edge(u.edge[0], u.edge[1]), u.delta);
    }
    VcQuerySketch driver(kN, VcQueryParams::Builder(params).Engine(engine).Build(),
                         kSeed);
    driver.Process(graph_stream);
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    driver.Serialize(&b);
    EXPECT_EQ(a, b) << "vc-query driver frame diverges";
  }
  {  // Hypergraph vertex-connectivity (all-endpoints-kept routing bits).
    const VcQueryParams params =
        VcQueryParams::Builder()
            .K(2)
            .ExplicitR(10)
            .Forest(ForestSketchParams::Builder()
                        .Config(SketchConfig::Light())
                        .Build())
            .Build();
    HyperVcQuerySketch serial(kN, /*max_rank=*/3, params, kSeed);
    for (const auto& u : hyper_stream.updates()) serial.Update(u.edge, u.delta);
    HyperVcQuerySketch driver(
        kN, 3, VcQueryParams::Builder(params).Engine(engine).Build(), kSeed);
    driver.Process(hyper_stream);
    EXPECT_TRUE(driver.StateEquals(serial));
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    driver.Serialize(&b);
    EXPECT_EQ(a, b) << "hyper-vc driver frame diverges";
  }
  {  // Sparsifier (depth re-derived per level at apply time).
    const SparsifierParams params =
        SparsifierParams::Builder()
            .Forest(ForestSketchParams::Builder()
                        .Config(SketchConfig::Light())
                        .Build())
            .Levels(6)
            .K(4)
            .Build();
    HypergraphSparsifierSketch serial(kN, /*max_rank=*/3, params, kSeed);
    for (const auto& u : hyper_stream.updates()) serial.Update(u.edge, u.delta);
    HypergraphSparsifierSketch driver(
        kN, 3, SparsifierParams::Builder(params).Engine(engine).Build(), kSeed);
    driver.Process(hyper_stream);
    EXPECT_TRUE(driver.StateEquals(serial));
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    driver.Serialize(&b);
    EXPECT_EQ(a, b) << "sparsifier driver frame diverges";
  }
}

// Workload-corpus families through every ingest mode: one power-law
// (kRmat, with churn) and one temporal-churn instance (the family that
// owns its own sliding-delete schedule), serial vs sharded-merge vs
// gutter-driver, compared at serialized-frame strength. These families
// stress skew the expander matrix above does not: rmat hubs concentrate
// updates on few gutters, and temporal churn interleaves every insert
// with a delete of the edge that expired.
TEST(DeterminismTest, WorkloadFamiliesAcrossIngestModesBitIdentical) {
  constexpr uint64_t kSeed = 67;
  std::vector<testkit::StreamSpec> specs(2);
  specs[0].family = testkit::Family::kRmat;
  specs[0].n = 64;
  specs[0].m = 160;
  specs[0].gseed = 23;
  specs[0].churn = testkit::Churn::kWithChurn;
  specs[0].decoys = 64;
  specs[0].sseed = 29;
  specs[1].family = testkit::Family::kTemporalChurn;
  specs[1].n = 48;
  specs[1].m = 96;
  specs[1].gseed = 31;
  specs[1].decoys = 64;
  specs[1].sseed = 37;

  for (const testkit::StreamSpec& spec : specs) {
    SCOPED_TRACE(spec.ToString());
    testkit::BuiltStream built = spec.Build();
    ASSERT_TRUE(built.stream.Validate());

    const ForestSketchParams serial_params =
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
    SpanningForestSketch serial(spec.n, /*max_rank=*/2, kSeed, serial_params);
    for (const auto& u : built.stream.updates()) serial.Update(u.edge, u.delta);
    const std::vector<uint8_t> serial_frame = Frame(serial);

    SpanningForestSketch sharded(
        spec.n, 2, kSeed,
        ForestSketchParams::Builder(serial_params)
            .Engine(EngineParams::Builder()
                        .Threads(4)
                        .Mode(IngestMode::kShardedMerge)
                        .Build())
            .Build());
    sharded.Process(built.stream);
    EXPECT_TRUE(sharded.StateEquals(serial));
    EXPECT_EQ(Frame(sharded), serial_frame) << "sharded-merge frame diverges";

    SpanningForestSketch driver(
        spec.n, 2, kSeed,
        ForestSketchParams::Builder(serial_params)
            .Engine(DriverEngine(/*readers=*/2, /*appliers=*/2))
            .Build());
    driver.Process(built.stream);
    EXPECT_TRUE(driver.StateEquals(serial));
    EXPECT_EQ(Frame(driver), serial_frame) << "gutter-driver frame diverges";
  }
}

}  // namespace
}  // namespace gms
