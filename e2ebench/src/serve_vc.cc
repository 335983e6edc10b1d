// serve_vc: a SketchServer with three Light-config engines -- forest,
// Theorem-4 vertex connectivity (k = 2, R = 32) and a k = 2 skeleton --
// serves a planted-separator graph while it streams in. One client thread
// alternates between ingesting one epoch of updates -- Ingest, then Flush
// until the engines serve it -- and sending a fixed batch of request frames
// through HandleFrame. Waiting for the merge keeps the requests from
// racing the engines' merger threads for the CPUs, which made their
// latency swing by 2x from one epoch to the next on a 4-CPU host.
//
// A traced round also replays every epoch serially through the public
// calls the engines make (one IngestPlane pass into open deltas, then
// MergeFrom, Clear, Query, ComponentIndex, BridgeIndex) on sketches built
// with the server's params and seeds, and checks that the replay ends on
// the same forest, VC and skeleton payloads as the server.
#include <optional>

#include "checks.h"
#include "connectivity/k_skeleton.h"
#include "serve/serve_protocol.h"
#include "serve/sketch_server.h"
#include "stream/ingest_plane.h"
#include "vertexconn/vc_query_sketch.h"
#include "workload/binary_stream.h"
#include "workloads.h"

namespace e2e {
namespace {

using gms::serve::ServeOp;
using gms::serve::ServeRequest;
using gms::serve::ServeResponse;

constexpr size_t kN = size_t{1} << 13;
constexpr size_t kCycles = 2;
constexpr size_t kEpochUpdates = size_t{1} << 14;
// Two full epochs and a half one: ~33k graph edges, the rest decoys.
constexpr size_t kStreamUpdates = 5 * kEpochUpdates / 2;
constexpr size_t kVcK = 2;
constexpr size_t kVcR = 32;
constexpr size_t kSkeletonK = 2;

// One request batch: mostly Connected, a few percent of each other op,
// and enough Disconnects (3%) that the p99 latency falls inside their mode
// (at its 67th percentile). The batch is large so that a round's client
// time averages over ~0.7 s of Disconnects, not a few bursts of host load.
constexpr size_t kConnected = 2685;
constexpr size_t kIsBridge = 75;
constexpr size_t kNumComponents = 75;
constexpr size_t kSkeletonCount = 75;
constexpr size_t kDisconnects = 90;

ServeRequest MakeRequest(ServeOp op, uint64_t u = 0, uint64_t v = 0,
                         std::vector<gms::VertexId> s = {}) {
  ServeRequest req;
  req.op = op;
  req.u = u;
  req.v = v;
  req.query_set = std::move(s);
  return req;
}

std::vector<ServeRequest> MakeBatch(const Input& in, uint64_t seed) {
  Rng rng(seed);
  auto vertex = [&] { return static_cast<uint32_t>(rng.Below(in.n)); };
  auto other = [&](uint32_t u) {
    uint32_t v = vertex();
    while (v == u) v = vertex();
    return v;
  };
  std::vector<ServeRequest> batch;
  for (size_t i = 0; i < kConnected; ++i) {
    batch.push_back(MakeRequest(ServeOp::kConnected, vertex(), vertex()));
  }
  for (size_t i = 0; i < kIsBridge; ++i) {
    // Half graph edges, half arbitrary pairs.
    if (i % 2 == 0) {
      const HEdge& e = in.final_edges[rng.Below(in.final_edges.size())];
      batch.push_back(MakeRequest(ServeOp::kIsBridge, e[0], e[1]));
    } else {
      const uint32_t u = vertex();
      batch.push_back(MakeRequest(ServeOp::kIsBridge, u, other(u)));
    }
  }
  for (size_t i = 0; i < kNumComponents; ++i) {
    batch.push_back(MakeRequest(ServeOp::kNumComponents));
  }
  for (size_t i = 0; i < kSkeletonCount; ++i) {
    batch.push_back(MakeRequest(ServeOp::kSkeletonEdgeCount));
  }
  const uint32_t h0 = in.separator[0], h1 = in.separator[1];
  for (size_t i = 0; i < kDisconnects; ++i) {
    std::vector<gms::VertexId> s;
    switch (i % 3) {
      case 0:  // the planted separator
        s = {h0, h1};
        break;
      case 1:  // one hub and another vertex
        s = {i % 2 ? h0 : h1, other(i % 2 ? h0 : h1)};
        break;
      default:  // one or two arbitrary vertices
        s = {vertex()};
        if (i % 2 == 0) s.push_back(other(s[0]));
        break;
    }
    batch.push_back(MakeRequest(ServeOp::kDisconnects, 0, 0, std::move(s)));
  }
  rng.Shuffle(&batch);
  return batch;
}

/// The reference answers a final (post-flush) response is checked with.
struct Reference {
  std::vector<uint32_t> label;
  size_t components = 0;
  Adjacency adj;
  std::vector<uint64_t> bridge_keys;
  size_t edges = 0;
};

void CheckFinalAnswer(Checker* checker, const Reference& ref,
                      const ServeRequest& req, const ServeResponse& resp) {
  const uint32_t u = static_cast<uint32_t>(req.u);
  const uint32_t v = static_cast<uint32_t>(req.v);
  switch (req.op) {
    case ServeOp::kConnected:
      CheckConnected(checker, resp.value != 0, ref.label, u, v);
      break;
    case ServeOp::kNumComponents:
      CheckNumComponents(checker, resp.value, ref.components);
      break;
    case ServeOp::kIsBridge:
      CheckIsBridge(checker, resp.value != 0, ref.bridge_keys,
                    HEdge{std::min(u, v), std::max(u, v)});
      break;
    case ServeOp::kSkeletonEdgeCount:
      CheckSkeletonEdgeCount(checker, resp.value, kN, kSkeletonK,
                             ref.components, ref.edges);
      break;
    case ServeOp::kDisconnects:
      CheckDisconnects(checker, resp.value != 0, ref.adj, req.query_set);
      break;
    default:
      checker->Refused(std::string("unexpected op ") +
                       gms::serve::ServeOpName(req.op));
  }
}

/// One HandleFrame round trip: encode, answer, decode. Returns seconds.
double RoundTrip(gms::serve::SketchServer& server, const ServeRequest& req,
                 std::vector<uint8_t>* req_buf, std::vector<uint8_t>* resp_buf,
                 std::optional<ServeResponse>* resp) {
  const Clock::time_point t0 = Clock::now();
  req_buf->clear();
  gms::serve::EncodeServeRequest(req, req_buf);
  resp_buf->clear();
  server.HandleFrame(*req_buf, resp_buf);
  auto decoded = gms::serve::DecodeServeResponse(*resp_buf);
  const double s = SecondsSince(t0);
  if (decoded.ok()) {
    resp->emplace(std::move(decoded).value());
  } else {
    resp->reset();
  }
  return s;
}

/// True when the response carries an answer; otherwise books a refusal.
bool Answered(Checker* checker, const ServeRequest& req,
              const std::optional<ServeResponse>& resp) {
  if (resp.has_value() && resp->code == gms::StatusCode::kOk) return true;
  checker->Refused(std::string(gms::serve::ServeOpName(req.op)) + ": " +
                   (resp.has_value() ? resp->message : "undecodable frame"));
  return false;
}

/// Latency bucket of an op for the per-layer medians.
const char* OpBucket(ServeOp op) {
  switch (op) {
    case ServeOp::kConnected:
      return "serve.connected_us";
    case ServeOp::kIsBridge:
      return "serve.is_bridge_us";
    case ServeOp::kDisconnects:
      return "serve.disconnects_us";
    default:
      return "serve.count_ops_us";
  }
}

/// Folds one sealed delta into the serving sketch as the engine's merger
/// does; returns true when the delta was dirty and the payload rebuilt.
template <typename Sketch, typename Result>
bool ReplayFold(Tracer& tr, Sketch* serving, Sketch* open,
                const char* merge_span, const char* extract_span,
                std::optional<Result>* latest, Checker* checker) {
  if (!open->SnapshotDirty()) return false;
  {
    Span s(tr, merge_span);
    const gms::Status st = serving->MergeFrom(*open);
    if (!st.ok()) checker->Refused("replay MergeFrom: " + st.ToString());
  }
  {
    Span s(tr, "connectivity.clear");
    open->Clear();
  }
  Span s(tr, extract_span);
  latest->emplace(serving->Query());
  return true;
}

struct ServerPayloads {
  std::shared_ptr<const gms::Hypergraph> forest;
  std::shared_ptr<const gms::VcUnionSnapshot> vc;
  std::shared_ptr<const gms::Hypergraph> skeleton;
};

/// The traced replay (see the file comment). Books the three payload
/// comparisons as checked operations and records the per-layer counters.
void Replay(Tracer& tr, Checker* checker,
            const gms::serve::SketchServerParams& p, uint64_t seed,
            const gms::DynamicStream& stream, const ServerPayloads& server,
            double ingest_s) {
  gms::SpanningForestSketch forest(kN, p.max_rank, seed, p.forest);
  gms::VcQuerySketch vc(kN, p.vc, seed + 1);
  gms::KSkeletonSketch skeleton(kN, p.max_rank, p.skeleton_k, seed + 2,
                                p.forest);
  gms::SpanningForestSketch forest_open = forest.CloneEmpty();
  gms::VcQuerySketch vc_open = vc.CloneEmpty();
  gms::KSkeletonSketch skeleton_open = skeleton.CloneEmpty();

  std::optional<gms::QueryResult<gms::Hypergraph>> f, s;
  std::optional<gms::QueryResult<gms::VcUnionSnapshot>> v;
  auto build_indexes = [&](bool forest_new, bool skeleton_new) {
    if (forest_new && f->ok()) {
      Span span(tr, "serve.component_index");
      gms::serve::ComponentIndex index(kN, f->value());
    }
    if (skeleton_new && s->ok()) {
      Span span(tr, "serve.bridge_index");
      gms::serve::BridgeIndex index(kN, s->value());
    }
  };
  {
    Span span(tr, "connectivity.extract");
    f.emplace(forest.Query());
  }
  {
    Span span(tr, "vertexconn.extract");
    v.emplace(vc.Query());
  }
  {
    Span span(tr, "connectivity.skeleton_extract");
    s.emplace(skeleton.Query());
  }
  build_indexes(true, true);

  gms::IngestPlane plane;
  gms::ExtractStats forest_stats;
  const std::span<const gms::StreamUpdate> all(stream.updates());
  for (size_t off = 0; off < all.size(); off += kEpochUpdates) {
    const auto chunk =
        all.subspan(off, std::min(kEpochUpdates, all.size() - off));
    {
      Span span(tr, "stream.plane");
      plane.Reset();
      const bool shared = plane.Add(&forest_open) && plane.Add(&vc_open) &&
                          plane.Add(&skeleton_open);
      if (!shared) checker->Refused("replay: an engine cannot share the plane");
      plane.Process(chunk);
    }
    const bool f_new = ReplayFold(tr, &forest, &forest_open,
                                  "connectivity.merge", "connectivity.extract",
                                  &f, checker);
    if (f_new) gms::AccumulateExtractStats(f->stats(), &forest_stats);
    ReplayFold(tr, &vc, &vc_open, "vertexconn.merge", "vertexconn.extract", &v,
               checker);
    const bool s_new = ReplayFold(tr, &skeleton, &skeleton_open,
                                  "connectivity.merge",
                                  "connectivity.skeleton_extract", &s, checker);
    build_indexes(f_new, s_new);
  }

  const bool all_ok = f->ok() && v->ok() && s->ok();
  checker->Expect(
      all_ok && f->value().Edges() == server.forest->Edges(),
      [] { return std::string("replayed forest != served forest"); });
  checker->Expect(
      all_ok && v->value().union_graph() == server.vc->union_graph(),
      [] { return std::string("replayed VC union != served VC union"); });
  checker->Expect(
      all_ok && s->value().Edges() == server.skeleton->Edges(),
      [] { return std::string("replayed skeleton != served skeleton"); });

  const double plane_s = tr.SpanSeconds("stream.plane");
  tr.Count("stream.plane_s", plane_s);
  tr.Count("stream.plane_consumers",
           static_cast<double>(plane.num_consumers()));
  tr.Count("serve.ingest_wait_s", ingest_s - plane_s);
  tr.Count("connectivity.merge_s", tr.SpanSeconds("connectivity.merge"));
  tr.Count("connectivity.clear_s", tr.SpanSeconds("connectivity.clear"));
  tr.Count("connectivity.extract_s", tr.SpanSeconds("connectivity.extract"));
  tr.Count("connectivity.skeleton_extract_s",
           tr.SpanSeconds("connectivity.skeleton_extract"));
  tr.Count("vertexconn.merge_s", tr.SpanSeconds("vertexconn.merge"));
  tr.Count("vertexconn.extract_s", tr.SpanSeconds("vertexconn.extract"));
  tr.Count("serve.component_index_s", tr.SpanSeconds("serve.component_index"));
  tr.Count("serve.bridge_index_s", tr.SpanSeconds("serve.bridge_index"));
  tr.Count("connectivity.rounds_run", forest_stats.rounds_run);
  tr.Count("connectivity.summed_words",
           static_cast<double>(forest_stats.summed_words));
  tr.Count("connectivity.sample_attempts",
           static_cast<double>(forest_stats.sample_attempts));
  tr.Count("connectivity.edges_per_sample",
           forest_stats.sample_attempts == 0
               ? 0.0
               : static_cast<double>(forest_stats.edges_found) /
                     static_cast<double>(forest_stats.sample_attempts));
  if (v->ok()) {
    tr.Count("vertexconn.sparse_exact_forests",
             static_cast<double>(v->stats().sparse_exact_forests));
  }
  size_t escalated = 0;
  for (gms::VertexId x = 0; x < kN; ++x) {
    escalated += forest.VertexEscalated(x) ? 1 : 0;
  }
  tr.Count("connectivity.escalated_vertices", static_cast<double>(escalated));
  const double mib = 1024.0 * 1024.0;
  tr.Count("sketch.space_mb",
           (forest.SpaceBytes() + vc.SpaceBytes() + skeleton.SpaceBytes()) /
               mib);
  tr.Count("sketch.reserved_mb",
           (forest.MemoryBytes() + vc.MemoryBytes() + skeleton.MemoryBytes()) /
               mib);
}

}  // namespace

void RunServeVc(const RunContext& ctx, std::vector<RoundResult>* rounds) {
  Tracer& tr = *ctx.tracer;
  Checker* checker = ctx.checker;
  const Input in = MakePlantedSeparator(kN, kCycles, kStreamUpdates, ctx.seed);
  const std::string path = WriteInputFile(ctx, in);

  Reference ref;
  ref.label = ComponentLabels(kN, in.final_edges, &ref.components);
  ref.adj = BuildAdjacency(kN, in.final_edges);
  for (size_t i : BridgeIndices(kN, in.final_edges)) {
    ref.bridge_keys.push_back(EdgeKey(in.final_edges[i]));
  }
  std::sort(ref.bridge_keys.begin(), ref.bridge_keys.end());
  ref.edges = in.final_edges.size();
  const std::vector<ServeRequest> batch = MakeBatch(in, ctx.seed + 1);
  // The first complete answer: one request of each op, after the flush.
  std::vector<ServeRequest> first_answer;
  for (ServeOp op : {ServeOp::kConnected, ServeOp::kNumComponents,
                     ServeOp::kIsBridge, ServeOp::kSkeletonEdgeCount,
                     ServeOp::kDisconnects}) {
    for (const ServeRequest& req : batch) {
      if (req.op == op) {
        first_answer.push_back(req);
        break;
      }
    }
  }

  const gms::ForestSketchParams forest =
      gms::ForestSketchParams::Builder()
          .Config(gms::SketchConfig::Light())
          .Build();
  const gms::VcQueryParams vc = gms::VcQueryParams::Builder()
                                    .K(kVcK)
                                    .ExplicitR(kVcR)
                                    .Forest(forest)
                                    .Build();
  const gms::serve::SketchServerParams params =
      gms::serve::SketchServerParams::Builder()
          .Forest(forest)
          .Vc(vc)
          .SkeletonK(kSkeletonK)
          .Serving(gms::ServingParams::Builder()
                       .EpochUpdates(kEpochUpdates)
                       .EpochDeadlineMillis(0)
                       .Build())
          .Build();
  const uint64_t seed = SketchSeed(ctx.seed);

  RunRounds(ctx, rounds, [&](int) {
    RoundResult res;
    // One set-up per round, not kSetups: the server's constructor maps and
    // copies ~1 GB of engine arenas, and repeating it churned the memory
    // that the answer step's own arena copies then paid for.
    gms::DynamicStream stream;
    std::optional<gms::serve::SketchServer> server;
    {
      Span setup(tr, "setup");
      {
        const gms::workload::BinaryFileStream file = OpenInput(tr, path);
        Span s(tr, "workload.decode");
        stream = file.ReadAll();
      }
      {
        Span s(tr, "serve.construct");
        server.emplace(kN, params, seed);
      }
      res.setup_s = setup.Stop();
    }

    // The stream, one epoch per Ingest call, a request batch after each.
    const ProcUsage u_ingest = ProcUsage::Now();
    const std::span<const gms::StreamUpdate> all(stream.updates());
    std::vector<uint8_t> req_buf, resp_buf;
    std::optional<ServeResponse> resp;
    std::map<std::string, std::vector<double>> by_op;
    double ingest_s = 0.0, max_lag = 0.0;
    uint64_t ingested = 0;
    for (size_t off = 0; off < all.size(); off += kEpochUpdates) {
      const auto chunk =
          all.subspan(off, std::min(kEpochUpdates, all.size() - off));
      {
        Span s(tr, "serve.ingest");
        server->Ingest(chunk);
        // A full epoch was sealed by Ingest; wait until it is served, so
        // the batch below reads this epoch's snapshot (the tail epoch is
        // left open for the answer step to flush).
        if (chunk.size() == kEpochUpdates) server->Flush();
        ingest_s += s.Stop();
      }
      ingested += chunk.size();
      for (const ServeRequest& req : batch) {
        Span s(tr, "serve.frame");
        const double sec = RoundTrip(*server, req, &req_buf, &resp_buf, &resp);
        s.Stop();
        res.latencies_us.push_back(1e6 * sec);
        if (tr.enabled()) by_op[OpBucket(req.op)].push_back(1e6 * sec);
        if (!Answered(checker, req, resp)) continue;
        CheckStaleness(checker, ingested, resp->prefix_updates, kEpochUpdates);
        max_lag = std::max(
            max_lag, static_cast<double>(ingested - resp->prefix_updates));
      }
    }
    res.updates = static_cast<double>(all.size());
    res.ingest_s = ingest_s;
    // One rate per round: the per-epoch batches see union graphs of
    // different sizes, so their own rates would cluster by epoch.
    res.batch_ends.push_back(res.latencies_us.size());
    const ProcUsage u_answer = ProcUsage::Now();
    const double rss_after_ingest = CurrentRssMib();

    // End of stream -> first complete answer.
    std::vector<std::optional<ServeResponse>> first(first_answer.size());
    {
      Span answer(tr, "answer");
      {
        Span s(tr, "serve.flush");
        server->Flush();
      }
      for (size_t i = 0; i < first_answer.size(); ++i) {
        RoundTrip(*server, first_answer[i], &req_buf, &resp_buf, &first[i]);
      }
      res.answer_s = answer.Stop();
    }
    const ProcUsage u_done = ProcUsage::Now();
    const double rss_after_answer = CurrentRssMib();

    // Every answer after the flush covers the whole stream and is exact.
    auto check_final = [&](const ServeRequest& req,
                           const std::optional<ServeResponse>& r) {
      if (!Answered(checker, req, r)) return;
      CheckStaleness(checker, all.size(), r->prefix_updates, 0);
      CheckFinalAnswer(checker, ref, req, *r);
    };
    for (size_t i = 0; i < first_answer.size(); ++i) {
      check_final(first_answer[i], first[i]);
    }
    for (const ServeRequest& req : batch) {
      RoundTrip(*server, req, &req_buf, &resp_buf, &resp);
      check_final(req, resp);
    }

    if (tr.enabled()) {
      // Frame overhead: HandleFrame round trip minus Handle on the same
      // decoded request, averaged over the batch. Disconnects are left
      // out: their millisecond BFS would drown a microsecond difference.
      double frame_s = 0.0, handle_s = 0.0;
      size_t framed = 0;
      for (const ServeRequest& req : batch) {
        if (req.op == ServeOp::kDisconnects) continue;
        ++framed;
        frame_s += RoundTrip(*server, req, &req_buf, &resp_buf, &resp);
        const Clock::time_point t0 = Clock::now();
        const ServeResponse direct = server->Handle(req);
        handle_s += SecondsSince(t0);
        if (direct.code != gms::StatusCode::kOk) {
          checker->Refused("Handle: " + direct.message);
        }
      }
      tr.Count("serve.frame_overhead_us",
               1e6 * (frame_s - handle_s) / static_cast<double>(framed));
      for (auto& [bucket, samples] : by_op) tr.Count(bucket, Median(samples));
      tr.Count("serve.flush_s", tr.SpanSeconds("serve.flush"));
      tr.Count("serve.prefix_lag_updates", max_lag);
      tr.Count("workload.open_s", tr.SpanSeconds("workload.open"));
      tr.Count("workload.decode_s", tr.SpanSeconds("workload.decode"));
      double merged = 0, hits = 0, rebuilds = 0;
      auto add_stats = [&](const auto& st) {
        merged += static_cast<double>(st.epochs_merged);
        hits += static_cast<double>(st.cache_hits);
        rebuilds += static_cast<double>(st.cache_rebuilds);
      };
      add_stats(server->forest_engine().stats());
      add_stats(server->vc_engine().stats());
      add_stats(server->skeleton_engine().stats());
      tr.Count("serve.epochs_merged", merged);
      tr.Count("serve.cache_hits", hits);
      tr.Count("serve.cache_rebuilds", rebuilds);

      ServerPayloads payloads;
      payloads.forest = server->forest_engine().Current()->payload;
      payloads.vc = server->vc_engine().Current()->payload;
      payloads.skeleton = server->skeleton_engine().Current()->payload;
      if (payloads.vc != nullptr) {
        tr.Count("vertexconn.union_edges",
                 static_cast<double>(payloads.vc->union_graph().NumEdges()));
        std::vector<double> direct_us;
        for (const ServeRequest& req : batch) {
          if (req.op != ServeOp::kDisconnects) continue;
          const Clock::time_point t0 = Clock::now();
          const auto answer = payloads.vc->Disconnects(req.query_set);
          direct_us.push_back(1e6 * SecondsSince(t0));
          if (!answer.ok()) {
            checker->Refused("Disconnects: " + answer.status().ToString());
          }
        }
        tr.Count("vertexconn.disconnects_us", Median(direct_us));
      }
      tr.Count("proc.rss_after_ingest_mb", rss_after_ingest);
      tr.Count("proc.rss_after_answer_mb", rss_after_answer);
      CountProcPhase(tr, "ingest", u_ingest, u_answer);
      CountProcPhase(tr, "answer", u_answer, u_done);
      server.reset();  // the replay builds its own sketches
      if (payloads.forest && payloads.vc && payloads.skeleton) {
        Replay(tr, checker, params, seed, stream, payloads, ingest_s);
      } else {
        checker->Refused("server payload missing for the replay");
      }
    }
    rounds->push_back(std::move(res));
  });
  std::remove(path.c_str());
}

}  // namespace e2e
