// Helpers shared by the workloads: tracer output, process counters, the
// input writer, the round loop, blocked index queries and the self-test
// of the answer checks.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "checks.h"
#include "serve/serve_protocol.h"
#include "workload/binary_stream.h"
#include "workloads.h"

namespace e2e {

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double Tracer::SpanSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (s.run == run_ && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double Tracer::CounterMedian(const std::string& name) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0.0;
  std::vector<double> values;
  for (const auto& [run, value] : it->second) values.push_back(value);
  return Median(values);
}

bool Tracer::WriteJson(const std::string& path, const std::string& workload,
                       uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run\": %d}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"counters\": {");
  bool first = true;
  for (const auto& [name, by_run] : counters_) {
    std::fprintf(f, "%s\n  \"%s\": {", first ? "" : ",", name.c_str());
    bool first_run = true;
    for (const auto& [run, value] : by_run) {
      std::fprintf(f, "%s\"%d\": %.10g", first_run ? "" : ", ", run, value);
      first_run = false;
    }
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

std::string WriteInputFile(const RunContext& ctx, const Input& in) {
  std::vector<gms::StreamUpdate> updates;
  updates.reserve(in.updates.size());
  for (const auto& [edge, delta] : in.updates) {
    updates.emplace_back(gms::Hyperedge(std::vector<gms::VertexId>(edge)),
                         delta);
  }
  const std::string path = ctx.input_dir + "/" + ctx.workload + "-" +
                           std::to_string(ctx.seed) + ".gmsb";
  const gms::Status st = gms::workload::WriteBinaryStreamFile(
      path, in.n, in.max_rank, std::span<const gms::StreamUpdate>(updates));
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return path;
}

void RunRounds(const RunContext& ctx, std::vector<RoundResult>* rounds,
               const std::function<void(int)>& round) {
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r == 0 || SecondsSince(t0) < ctx.seconds; ++r) {
    ctx.tracer->SetRun(r);
    const size_t before = rounds->size();
    round(r);
    if (rounds->size() > before) {
      const RoundResult& res = rounds->back();
      std::fprintf(stderr,
                   "round %d: setup_s=%.4g ingest_ups=%.5g answer_s=%.4g "
                   "queries_per_s=%.5g\n",
                   r, res.setup_s, res.IngestRate(), res.answer_s,
                   Median(res.BatchRates()));
    }
  }
}

gms::workload::BinaryFileStream OpenInput(Tracer& tr, const std::string& path) {
  Span s(tr, "workload.open");
  auto opened = gms::workload::BinaryFileStream::Open(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened).value();
}

uint64_t SketchSeed(uint64_t run_seed) {
  return Rng(run_seed ^ 0x5eed5eed5eed5eedULL).Next();
}

void QueryIndexFrames(const gms::serve::ComponentIndex& index,
                      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                      const std::vector<uint32_t>& ref_label,
                      size_t ref_components, Checker* checker,
                      RoundResult* res) {
  using gms::serve::ServeOp;
  std::vector<uint8_t> req_buf, resp_buf;
  for (size_t i = 0; i < pairs.size(); ++i) {
    gms::serve::ServeRequest req;
    req.op = i % 64 == 63 ? ServeOp::kNumComponents : ServeOp::kConnected;
    req.u = pairs[i].first;
    req.v = pairs[i].second;
    const Clock::time_point t0 = Clock::now();
    req_buf.clear();
    gms::serve::EncodeServeRequest(req, &req_buf);
    auto decoded = gms::serve::DecodeServeRequest(req_buf);
    gms::serve::ServeResponse resp;
    if (decoded.ok()) {
      resp.op = decoded->op;
      resp.value = decoded->op == ServeOp::kConnected
                       ? index.Connected(static_cast<gms::VertexId>(decoded->u),
                                         static_cast<gms::VertexId>(decoded->v))
                       : index.num_components();
    } else {
      resp.code = decoded.status().code();
    }
    resp_buf.clear();
    gms::serve::EncodeServeResponse(resp, &resp_buf);
    auto answer = gms::serve::DecodeServeResponse(resp_buf);
    res->latencies_us.push_back(1e6 * SecondsSince(t0));
    if ((i + 1) % kFrameBatch == 0 || i + 1 == pairs.size()) {
      res->batch_ends.push_back(res->latencies_us.size());
    }
    if (!answer.ok() || answer->code != gms::StatusCode::kOk) {
      checker->Refused("index request frame");
    } else if (req.op == ServeOp::kConnected) {
      CheckConnected(checker, answer->value != 0, ref_label, pairs[i].first,
                     pairs[i].second);
    } else {
      CheckNumComponents(checker, answer->value, ref_components);
    }
  }
}

void CountProcPhase(Tracer& tr, const char* phase, const ProcUsage& before,
                    const ProcUsage& after, size_t repetitions) {
  const std::string p = std::string("proc.") + phase;
  const double reps = static_cast<double>(repetitions);
  tr.Count(p + "_sys_s", (after.sys_s - before.sys_s) / reps);
  tr.Count(p + "_minflt", (after.minflt - before.minflt) / reps);
}

bool AllEdgesIn(const std::vector<gms::Hyperedge>& edges,
                const std::vector<HEdge>& final_edges) {
  std::unordered_set<uint64_t> keys;
  keys.reserve(final_edges.size());
  for (const HEdge& e : final_edges) keys.insert(EdgeKey(e));
  for (const gms::Hyperedge& e : edges) {
    if (!keys.contains(EdgeKey(HEdge(e.begin(), e.end())))) return false;
  }
  return true;
}

bool SelfTest() {
  // 0-1-2-0 triangle, bridge 2-3, path 3-4, isolated 5; hyperedge {3,4,5}
  // added for the hypergraph cases.
  const size_t n = 6;
  const std::vector<HEdge> graph = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}};
  size_t comps = 0;
  const std::vector<uint32_t> label = ComponentLabels(n, graph, &comps);
  const Adjacency adj = BuildAdjacency(n, graph);
  std::vector<uint64_t> bridges;
  for (size_t i : BridgeIndices(n, graph)) bridges.push_back(EdgeKey(graph[i]));
  std::sort(bridges.begin(), bridges.end());
  std::vector<HEdge> hyper = graph;
  hyper.push_back({3, 4, 5});
  const std::vector<bool> shore = {true, true, true, false, false, false};

  bool ok = true;
  // Each case runs a check twice, with the right answer and a wrong one:
  // exactly the wrong one must count as a failed operation.
  auto expect_one_failure = [&](const char* name, auto&& check) {
    Checker c(/*quiet=*/true);
    check(&c, /*wrong=*/false);
    check(&c, /*wrong=*/true);
    if (c.attempted() != 2 || c.failed() != 1 || c.wrong() != 1) {
      std::fprintf(stderr,
                   "self-test: %s check does not catch a wrong answer\n", name);
      ok = false;
    }
  };
  expect_one_failure("Connected", [&](Checker* c, bool wrong) {
    CheckConnected(c, /*answer=*/!wrong, label, 0, 2);
  });
  expect_one_failure("Connected(isolated)", [&](Checker* c, bool wrong) {
    CheckConnected(c, /*answer=*/wrong, label, 0, 5);
  });
  expect_one_failure("NumComponents", [&](Checker* c, bool wrong) {
    CheckNumComponents(c, wrong ? 1 : 2, comps);
  });
  expect_one_failure("Disconnects", [&](Checker* c, bool wrong) {
    CheckDisconnects(c, /*answer=*/!wrong, adj, {3});  // 4 and 5 cut off
  });
  expect_one_failure("Disconnects(no cut)", [&](Checker* c, bool wrong) {
    // Without the isolated vertex, removing vertex 0 leaves 1-2-3-4 joined.
    const Adjacency joined = BuildAdjacency(5, graph);
    CheckDisconnects(c, /*answer=*/wrong, joined, {0});
  });
  expect_one_failure("IsBridge", [&](Checker* c, bool wrong) {
    CheckIsBridge(c, /*answer=*/!wrong, bridges, {2, 3});
  });
  expect_one_failure("IsBridge(cycle edge)", [&](Checker* c, bool wrong) {
    CheckIsBridge(c, /*answer=*/wrong, bridges, {0, 1});
  });
  expect_one_failure("BridgeSet", [&](Checker* c, bool wrong) {
    std::vector<uint64_t> answer = bridges;
    if (wrong) answer.pop_back();
    CheckBridgeSet(c, answer, bridges);
  });
  expect_one_failure("SkeletonEdgeCount", [&](Checker* c, bool wrong) {
    CheckSkeletonEdgeCount(c, wrong ? 2 : 4, n, 2, comps, graph.size());
  });
  expect_one_failure("MinCut", [&](Checker* c, bool wrong) {
    // Shore {0,1,2} is crossed by {2,3} only: a cut of 1.
    CheckMinCut(c, wrong ? 2 : 1, true, shore, hyper, 1);
  });
  expect_one_failure("MinCut(shore)", [&](Checker* c, bool wrong) {
    std::vector<bool> bad = shore;
    if (wrong) bad[2] = false;  // now crossed by {1,2}, {0,2}, {2,3}
    CheckMinCut(c, 1, true, bad, hyper, 1);
  });
  expect_one_failure("Staleness", [&](Checker* c, bool wrong) {
    CheckStaleness(c, 1000, wrong ? 100 : 500, 256);
  });
  // The references themselves, on answers known by hand.
  // In the hypergraph {3,4} stops being a bridge and {3,4,5} becomes one.
  if (comps != 2 || bridges.size() != 2 || !DisconnectsRef(adj, {2}) ||
      DisconnectsRef(BuildAdjacency(5, graph), {1}) ||
      CutSize(hyper, shore) != 1 || BridgeIndices(n, hyper).size() != 2) {
    std::fprintf(stderr, "self-test: a reference check is wrong\n");
    ok = false;
  }
  return ok;
}

}  // namespace e2e
