// The three workloads and the helpers they share. Each workload generates
// its input from the run's seed and writes it before any timed region,
// then runs whole rounds (set up, ingest, answer, query, check) until the
// run's time is spent, appending one RoundResult per round.
#ifndef GMS_E2EBENCH_WORKLOADS_H_
#define GMS_E2EBENCH_WORKLOADS_H_

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "serve/sketch_server.h"
#include "stream/stream.h"
#include "workload/binary_stream.h"

namespace e2e {

void RunBatchDense(const RunContext& ctx, std::vector<RoundResult>* rounds);
void RunServeVc(const RunContext& ctx, std::vector<RoundResult>* rounds);
void RunAppsHypercut(const RunContext& ctx, std::vector<RoundResult>* rounds);

/// Writes the input as a GMSB stream file under ctx.input_dir and returns
/// its path; exits the process if the file cannot be written.
std::string WriteInputFile(const RunContext& ctx, const Input& in);

/// Calls round(r) for r = 0, 1, ... and stops after the first round that
/// ends ctx.seconds or more after the first one started. Each round appends
/// its result to *rounds; the figures are echoed on stderr.
void RunRounds(const RunContext& ctx, std::vector<RoundResult>* rounds,
               const std::function<void(int)>& round);

/// Opens and validates the input file (exits the process on failure),
/// inside a workload.open span.
gms::workload::BinaryFileStream OpenInput(Tracer& tr, const std::string& path);

/// Set-ups per round: each round builds its objects this many times (the
/// earlier copies torn down untimed) and reports the median, since one
/// set-up that maps GBs of arena swings by a third on a shared host.
inline constexpr size_t kSetups = 3;

/// A seed for the library's sketches, derived from the run's seed.
uint64_t SketchSeed(uint64_t run_seed);

/// Requests to a batch answer over the serve wire protocol: each request
/// is encoded as a frame, decoded, answered from the ComponentIndex
/// (Connected, or NumComponents for every 64th request), and the response
/// encoded and decoded again -- HandleFrame's path without a server. Each
/// round trip is timed on its own into res->latencies_us, in batches of
/// kFrameBatch requests, and every answer is checked against the reference
/// component labels. A batch spans ~2 ms, so the median batch rate is one
/// that no burst of host load (steal time on a shared VM) landed on.
inline constexpr size_t kFrameBatch = size_t{1} << 12;
void QueryIndexFrames(const gms::serve::ComponentIndex& index,
                      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                      const std::vector<uint32_t>& ref_label,
                      size_t ref_components, Checker* checker,
                      RoundResult* res);

/// The process counters every workload records in a traced round, per
/// repetition of the phase.
void CountProcPhase(Tracer& tr, const char* phase, const ProcUsage& before,
                    const ProcUsage& after, size_t repetitions = 1);

/// True iff every edge of `edges` is in the generator's final graph.
bool AllEdgesIn(const std::vector<gms::Hyperedge>& edges,
                const std::vector<HEdge>& final_edges);

/// Feeds each reference check a wrong answer and confirms the Checker
/// counts it as failed. Returns false (and says why) if one slips through.
bool SelfTest();

}  // namespace e2e

#endif  // GMS_E2EBENCH_WORKLOADS_H_
