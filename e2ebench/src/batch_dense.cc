// batch_dense: one Light-config SpanningForestSketch (2 engine threads by
// default, in the library's default column-sharded mode) ingests a Gnm
// churn stream from a GMSB file, then extracts a spanning forest and builds the
// ComponentIndex; requests to that answer travel as serve-protocol frames.
#include <optional>

#include "checks.h"
#include "connectivity/spanning_forest_sketch.h"
#include "workload/binary_stream.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr size_t kN = size_t{1} << 14;
constexpr double kMeanDegree = 48.0;
constexpr size_t kQueryPairs = size_t{1} << 19;
constexpr size_t kAnswers = 3;

}  // namespace

void RunBatchDense(const RunContext& ctx, std::vector<RoundResult>* rounds) {
  Tracer& tr = *ctx.tracer;
  Checker* checker = ctx.checker;
  const size_t live = kN - kN / 64;
  const size_t decoys = static_cast<size_t>(kMeanDegree * live / 8.0);
  const Input in = MakeGnmChurn(kN, kMeanDegree, decoys, ctx.seed);
  const std::string path = WriteInputFile(ctx, in);

  size_t ref_comps = 0;
  const std::vector<uint32_t> ref_label =
      ComponentLabels(kN, in.final_edges, &ref_comps);
  // A quarter of the requests touch a vertex the stream left isolated.
  Rng rng(ctx.seed + 1);
  std::vector<std::pair<uint32_t, uint32_t>> pairs(kQueryPairs);
  for (size_t i = 0; i < kQueryPairs; ++i) {
    const uint32_t u = i % 4 == 0 ? in.isolated[rng.Below(in.isolated.size())]
                                  : static_cast<uint32_t>(rng.Below(kN));
    pairs[i] = {u, static_cast<uint32_t>(rng.Below(kN))};
  }

  const gms::ForestSketchParams params =
      gms::ForestSketchParams::Builder()
          .Config(gms::SketchConfig::Light())
          .Threads(ctx.engine_threads)
          .Build();
  const uint64_t sketch_seed = SketchSeed(ctx.seed);

  RunRounds(ctx, rounds, [&](int) {
    RoundResult res;
    std::optional<gms::workload::BinaryFileStream> file;
    std::optional<gms::SpanningForestSketch> sketch;
    std::vector<double> setups;
    for (size_t rep = 0; rep < kSetups; ++rep) {
      file.reset();
      sketch.reset();
      Span setup(tr, "setup");
      file.emplace(OpenInput(tr, path));
      {
        Span s(tr, "connectivity.construct");
        sketch.emplace(kN, 2, sketch_seed, params);
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
      Span s(tr, "connectivity.ingest");
      sketch->Process(stream);
    }
    res.updates = static_cast<double>(stream.size());
    res.ingest_s = ingest.Stop();
    const ProcUsage u_answer = ProcUsage::Now();
    const double rss_after_ingest = CurrentRssMib();

    // The answer is computed kAnswers times from the same final state (Query
    // is const) and answer_s is the median: one 0.2 s extraction on a shared
    // 4-CPU host swings by a quarter from run to run.
    std::optional<gms::QueryResult<gms::Hypergraph>> forest;
    std::optional<gms::serve::ComponentIndex> index;
    std::vector<double> answers;
    for (size_t rep = 0; rep < kAnswers; ++rep) {
      Span answer(tr, "answer");
      {
        Span s(tr, "connectivity.extract");
        forest.emplace(sketch->Query());
      }
      index.reset();
      if (forest->ok()) {
        Span s(tr, "serve.component_index");
        index.emplace(kN, forest->value());
      }
      answers.push_back(answer.Stop());
    }
    res.answer_s = Median(answers);
    const ProcUsage u_done = ProcUsage::Now();
    const double rss_after_answer = CurrentRssMib();

    if (!forest->ok()) {
      checker->Refused("forest Query: " + forest->status().ToString());
      rounds->push_back(std::move(res));
      return;
    }
    checker->Expect(AllEdgesIn(forest->value().Edges(), in.final_edges),
                    [] { return std::string("forest edge not in the graph"); });
    CheckNumComponents(checker, index->num_components(), ref_comps);
    QueryIndexFrames(*index, pairs, ref_label, ref_comps, checker, &res);

    if (tr.enabled()) {
      tr.Count("workload.open_s", tr.SpanSeconds("workload.open") / kSetups);
      tr.Count("workload.decode_s", tr.SpanSeconds("workload.decode"));
      tr.Count("connectivity.ingest_s", tr.SpanSeconds("connectivity.ingest"));
      // Per answer: the mean over the kAnswers repetitions.
      tr.Count("connectivity.extract_s",
               tr.SpanSeconds("connectivity.extract") / kAnswers);
      tr.Count("serve.component_index_s",
               tr.SpanSeconds("serve.component_index") / kAnswers);
      size_t escalated = 0;
      for (gms::VertexId v = 0; v < kN; ++v) {
        escalated += sketch->VertexEscalated(v) ? 1 : 0;
      }
      tr.Count("connectivity.escalated_vertices",
               static_cast<double>(escalated));
      const gms::ExtractStats& st = forest->stats();
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
      tr.Count("sketch.space_mb", sketch->SpaceBytes() / (1024.0 * 1024.0));
      tr.Count("sketch.reserved_mb",
               sketch->MemoryBytes() / (1024.0 * 1024.0));
      tr.Count("proc.rss_after_ingest_mb", rss_after_ingest);
      tr.Count("proc.rss_after_answer_mb", rss_after_answer);
      CountProcPhase(tr, "ingest", u_ingest, u_answer);
      CountProcPhase(tr, "answer", u_answer, u_done, kAnswers);
    }
    rounds->push_back(std::move(res));
  });
  std::remove(path.c_str());
}

}  // namespace e2e
