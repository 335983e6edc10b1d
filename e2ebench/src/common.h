// Shared plumbing for the end-to-end benchmark: clocks, process counters,
// order statistics, answer-check bookkeeping, and the in-memory tracer.
//
// Every timed region is measured by a Span from the benchmark's own code,
// around the public library call it covers. With tracing off a Span is a
// plain stopwatch; with tracing on it is also recorded (name, start, end,
// parent, run id) and the records are written out when the run ends.
#ifndef GMS_E2EBENCH_COMMON_H_
#define GMS_E2EBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics; `v` is sorted in place.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

/// getrusage(RUSAGE_SELF) fields the per-phase process counters use.
struct ProcUsage {
  double sys_s = 0.0;
  double minflt = 0.0;
  double maxrss_mib = 0.0;

  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.minflt = static_cast<double>(ru.ru_minflt);
    u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
  }
};

/// Resident set size right now, in MiB (from /proc/self/statm).
double CurrentRssMib();

/// Counts checked operations. An operation fails when the library refuses
/// it (an error status) or when its answer disagrees with the reference
/// check; only the second kind makes the run incorrect. The first few
/// failures are described on stderr.
class Checker {
 public:
  explicit Checker(bool quiet = false) : quiet_(quiet) {}

  /// One operation whose answer was checked; `ok` is the verdict and
  /// describe() names the operation (called only on failure).
  template <typename Describe>
  void Expect(bool ok, Describe&& describe) {
    ++attempted_;
    if (ok) return;
    ++wrong_;
    Note("wrong answer", describe());
  }
  /// One operation the library refused.
  void Refused(const std::string& what) {
    ++attempted_;
    Note("refused", what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong() const { return wrong_; }

 private:
  void Note(const char* kind, const std::string& what) {
    ++failed_;
    if (!quiet_ && failed_ <= 8) {
      std::fprintf(stderr, "%s: %s\n", kind, what.c_str());
    }
  }

  bool quiet_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root span
  int run = 0;      // round of the workload that recorded it
};

/// Spans and per-round counters, kept in memory until WriteJson. Disabled
/// tracers record nothing; Span still times.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void SetRun(int run) { run_ = run; }

  int Open(const char* name) {
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.name = name;
    rec.start_ns = NowNs();
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.run = run_;
    spans_.push_back(std::move(rec));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Sum of the durations of this round's spans named `name`, in seconds.
  double SpanSeconds(const std::string& name) const;

  /// Set a per-layer counter for the current round.
  void Count(const std::string& name, double value) {
    if (enabled_) counters_[name][run_] = value;
  }
  /// Median over rounds of a counter (0 when the workload never set it).
  double CounterMedian(const std::string& name) const;

  /// Spans and counters as one JSON document.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::map<std::string, std::map<int, double>> counters_;
};

/// Scoped timer around one public call; recorded when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Open(name)), t0_(Clock::now()) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      seconds_ = SecondsSince(t0_);
      tracer_.Close(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// One round of a workload: what its timed regions measured.
struct RoundResult {
  double setup_s = 0.0;
  double answer_s = 0.0;
  /// Stream updates ingested and the wall time that took.
  double updates = 0.0;
  double ingest_s = 0.0;
  /// Client-side latency of every request, in microseconds.
  std::vector<double> latencies_us;
  /// Where each batch of requests ends in latencies_us.
  std::vector<size_t> batch_ends;

  double IngestRate() const { return updates / ingest_s; }
  /// Requests answered per second of client time, one value per batch.
  std::vector<double> BatchRates() const {
    std::vector<double> rates;
    size_t begin = 0;
    for (size_t end : batch_ends) {
      double client_s = 0.0;
      for (size_t i = begin; i < end; ++i) client_s += 1e-6 * latencies_us[i];
      rates.push_back(static_cast<double>(end - begin) / client_s);
      begin = end;
    }
    return rates;
  }
};

struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string input_dir;
  /// batch_dense's EngineParams::threads.
  size_t engine_threads = 2;
  Tracer* tracer = nullptr;
  Checker* checker = nullptr;
};

}  // namespace e2e

#endif  // GMS_E2EBENCH_COMMON_H_
