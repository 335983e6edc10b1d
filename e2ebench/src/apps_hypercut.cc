// apps_hypercut: TwoEdgeConnect and ApproxMinCut (k_cap = 4), both Light
// config, ingest a rank-3 planted-cut hypergraph with churn from a GMSB
// file through their plane-backed Process, then both answer. Requests are
// answered by a ComponentIndex over the 2-edge skeleton, as serve-protocol
// frames.
//
// A traced round also walks the min-cut ladder itself through public
// calls (each level's skeleton Query, then the exact HypergraphMinCut on
// it) to split ApproxMinCut::Query into extraction and exact min cut.
#include <optional>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "checks.h"
#include "exact/hypergraph_mincut.h"
#include "workload/binary_stream.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr size_t kN = size_t{1} << 10;
constexpr size_t kDecoys = size_t{1} << 14;
constexpr size_t kCutCap = 4;
constexpr size_t kQueryPairs = size_t{1} << 19;

std::vector<uint64_t> Keys(const std::vector<gms::Hyperedge>& edges) {
  std::vector<uint64_t> keys;
  for (const gms::Hyperedge& e : edges) {
    keys.push_back(EdgeKey(HEdge(e.begin(), e.end())));
  }
  return keys;
}

/// The ladder ApproxMinCut::Query walks, one public call at a time.
void TraceLadder(Tracer& tr, Checker* checker,
                 const gms::apps::ApproxMinCut& cut, size_t answer) {
  size_t levels = 0, value = kCutCap;
  for (size_t i = 0; i < cut.num_levels(); ++i) {
    const gms::KSkeletonSketch& level = cut.level(i);
    ++levels;
    std::optional<gms::QueryResult<gms::Hypergraph>> skel;
    {
      Span s(tr, "connectivity.skeleton_extract");
      skel.emplace(level.Query());
    }
    if (!skel->ok()) {
      checker->Refused("ladder level Query: " + skel->status().ToString());
      return;
    }
    Span s(tr, "exact.mincut");
    const gms::HypergraphCut c = gms::HypergraphMinCut(skel->value());
    s.Stop();
    const size_t v = static_cast<size_t>(c.value + 0.5);
    if (v < level.k()) {
      value = v;
      break;
    }
  }
  checker->Expect(value == answer, [&] {
    return "ladder walk " + std::to_string(value) + " != ApproxMinCut " +
           std::to_string(answer);
  });
  tr.Count("apps.mincut.levels_queried", static_cast<double>(levels));
  tr.Count("connectivity.skeleton_extract_s",
           tr.SpanSeconds("connectivity.skeleton_extract"));
  tr.Count("exact.mincut_s", tr.SpanSeconds("exact.mincut"));
}

}  // namespace

void RunAppsHypercut(const RunContext& ctx, std::vector<RoundResult>* rounds) {
  Tracer& tr = *ctx.tracer;
  Checker* checker = ctx.checker;
  const Input in = MakePlantedHypercut(kN, kDecoys, ctx.seed);
  const std::string path = WriteInputFile(ctx, in);

  size_t ref_comps = 0;
  const std::vector<uint32_t> ref_label =
      ComponentLabels(kN, in.final_edges, &ref_comps);
  std::vector<uint64_t> ref_bridges;
  for (size_t i : BridgeIndices(kN, in.final_edges)) {
    ref_bridges.push_back(EdgeKey(in.final_edges[i]));
  }
  std::sort(ref_bridges.begin(), ref_bridges.end());
  Rng rng(ctx.seed + 1);
  std::vector<std::pair<uint32_t, uint32_t>> pairs(kQueryPairs);
  for (auto& [u, v] : pairs) {
    u = static_cast<uint32_t>(rng.Below(kN));
    v = static_cast<uint32_t>(rng.Below(kN));
  }

  const gms::ForestSketchParams params =
      gms::ForestSketchParams::Builder()
          .Config(gms::SketchConfig::Light())
          .Build();
  const uint64_t seed = SketchSeed(ctx.seed);

  RunRounds(ctx, rounds, [&](int) {
    RoundResult res;
    std::optional<gms::workload::BinaryFileStream> file;
    std::optional<gms::apps::TwoEdgeConnect> two;
    std::optional<gms::apps::ApproxMinCut> cut;
    std::vector<double> setups;
    for (size_t rep = 0; rep < kSetups; ++rep) {
      file.reset();
      two.reset();
      cut.reset();
      Span setup(tr, "setup");
      file.emplace(OpenInput(tr, path));
      {
        Span s(tr, "apps.construct");
        two.emplace(kN, in.max_rank, seed, params);
        cut.emplace(kN, in.max_rank, kCutCap, seed + 1, params);
      }
      setups.push_back(setup.Stop());
    }
    res.setup_s = Median(setups);

    const ProcUsage u_ingest = ProcUsage::Now();
    Span ingest(tr, "ingest");
    gms::DynamicStream stream;
    {
      Span s(tr, "workload.decode");
      stream = file->ReadAll();
    }
    {
      Span s(tr, "apps.two_edge.ingest");
      two->Process(stream);
    }
    {
      Span s(tr, "apps.mincut.ingest");
      cut->Process(stream);
    }
    res.updates = static_cast<double>(stream.size());
    res.ingest_s = ingest.Stop();
    const ProcUsage u_answer = ProcUsage::Now();
    const double rss_after_ingest = CurrentRssMib();

    Span answer(tr, "answer");
    std::optional<gms::QueryResult<gms::apps::TwoEdgeConnectAnswer>> bridges;
    {
      Span s(tr, "apps.two_edge.query");
      bridges.emplace(two->Query());
    }
    std::optional<gms::QueryResult<gms::apps::MinCutEstimate>> mincut;
    {
      Span s(tr, "apps.mincut.query");
      mincut.emplace(cut->Query());
    }
    res.answer_s = answer.Stop();
    const ProcUsage u_done = ProcUsage::Now();
    const double rss_after_answer = CurrentRssMib();

    if (bridges->ok()) {
      const gms::apps::TwoEdgeConnectAnswer& a = bridges->value();
      checker->Expect(a.connected == (ref_comps == 1), [] {
        return std::string("TwoEdgeConnect connected");
      });
      CheckNumComponents(checker, a.num_components, ref_comps);
      CheckBridgeSet(checker, Keys(a.bridges), ref_bridges);
      checker->Expect(
          a.two_edge_connected == (ref_comps == 1 && ref_bridges.empty()),
          [] { return std::string("TwoEdgeConnect two_edge_connected"); });
      checker->Expect(AllEdgesIn(a.skeleton.Edges(), in.final_edges), [] {
        return std::string("2-skeleton edge not in the hypergraph");
      });
      const gms::serve::ComponentIndex index(kN, a.skeleton);
      QueryIndexFrames(index, pairs, ref_label, ref_comps, checker, &res);
    } else {
      checker->Refused("TwoEdgeConnect Query: " + bridges->status().ToString());
    }
    if (mincut->ok()) {
      const gms::apps::MinCutEstimate& est = mincut->value();
      CheckMinCut(checker, est.value, est.exact, est.shore, in.final_edges,
                  in.planted_cut);
    } else {
      checker->Refused("ApproxMinCut Query: " + mincut->status().ToString());
    }

    if (tr.enabled()) {
      tr.Count("workload.open_s", tr.SpanSeconds("workload.open") / kSetups);
      tr.Count("workload.decode_s", tr.SpanSeconds("workload.decode"));
      tr.Count("apps.two_edge.ingest_s",
               tr.SpanSeconds("apps.two_edge.ingest"));
      tr.Count("apps.mincut.ingest_s", tr.SpanSeconds("apps.mincut.ingest"));
      tr.Count("apps.two_edge.query_s", tr.SpanSeconds("apps.two_edge.query"));
      tr.Count("apps.mincut.query_s", tr.SpanSeconds("apps.mincut.query"));
      if (bridges->ok()) {
        const gms::ExtractStats& st = bridges->stats();
        tr.Count("connectivity.rounds_run", st.rounds_run);
        tr.Count("connectivity.summed_words",
                 static_cast<double>(st.summed_words));
        tr.Count("connectivity.sample_attempts",
                 static_cast<double>(st.sample_attempts));
        tr.Count("connectivity.edges_per_sample",
                 st.sample_attempts == 0
                     ? 0.0
                     : static_cast<double>(st.edges_found) /
                           static_cast<double>(st.sample_attempts));
      }
      size_t escalated = 0;
      for (gms::VertexId v = 0; v < kN; ++v) {
        escalated += two->layer1().VertexEscalated(v) ? 1 : 0;
      }
      tr.Count("connectivity.escalated_vertices",
               static_cast<double>(escalated));
      const double mib = 1024.0 * 1024.0;
      size_t space = two->layer1().SpaceBytes() + two->layer2().SpaceBytes();
      for (size_t i = 0; i < cut->num_levels(); ++i) {
        space += cut->level(i).SpaceBytes();
      }
      const double reserved = (two->MemoryBytes() + cut->MemoryBytes()) / mib;
      tr.Count("sketch.space_mb", space / mib);
      tr.Count("sketch.reserved_mb", reserved);
      tr.Count("apps.reserved_mb", reserved);
      tr.Count("proc.rss_after_ingest_mb", rss_after_ingest);
      tr.Count("proc.rss_after_answer_mb", rss_after_answer);
      CountProcPhase(tr, "ingest", u_ingest, u_answer);
      CountProcPhase(tr, "answer", u_answer, u_done);
      if (mincut->ok()) TraceLadder(tr, checker, *cut, mincut->value().value);
    }
    rounds->push_back(std::move(res));
  });
  std::remove(path.c_str());
}

}  // namespace e2e
