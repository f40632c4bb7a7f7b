// Shared pieces of the benchmark runner: arguments, clocks, sample
// statistics, seeded input generation, the span tracer and the result that
// each workload fills in.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "pattern/pattern.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" is the benchmark; "tiny" shrinks every input for the self-test.
  std::string scale = "full";
  /// Self-test hook: damage one answer before it is checked.
  bool corrupt = false;
  std::string workdir;        ///< scratch files (CSV, durable sessions)
  std::string server_binary;  ///< coverage_server, for serve-mixed
  int threads = 1;            ///< nproc
  bool tiny() const { return scale == "tiny"; }
};

double NowSeconds();

/// Latency or size samples; percentiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / values_.size(); }

 private:
  std::vector<double> values_;
};

/// Median of a few repetitions (set-up time is measured this way).
double MedianOf(std::vector<double> values);

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMib(pid_t pid);

/// Resets this process's VmHWM to its current resident set (Linux
/// clear_refs; best effort).
void ResetPeakRss();

/// Independent binary attributes with the AirBnB-style log-uniform spread
/// of "yes" rates over [0.02, 0.5], drawn from the benchmark's own RNG so
/// the inputs do not depend on the program's generators.
coverage::Dataset MakeBinaryRows(std::size_t n, int d, std::uint64_t seed);

/// Rows of `data` in [begin, end) as a new dataset over the same schema.
coverage::Dataset Slice(const coverage::Dataset& data, std::size_t begin,
                        std::size_t end);

/// A pattern that keeps `level` random attributes of a random row of
/// `data` and wildcards the rest, so most probes have non-zero coverage.
coverage::Pattern RandomProbe(const coverage::Dataset& data, int level,
                              std::mt19937_64& rng);

/// Sorted string forms, for comparing MUP sets across code paths.
std::vector<std::string> PatternStrings(
    const std::vector<coverage::Pattern>& patterns);

/// Spans recorded around the benchmark's calls into each layer: name,
/// start, end and the span that caused it. Kept in memory and written out
/// once when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Begin(const std::string& name);
  void End(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled or null.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the untraced end-to-end
/// metrics, `layers` the traced per-layer ones; `report` holds the
/// per-workload figures named in METRICS.md (audit_p50_s, query_p99_ms,
/// ...) printed as lines; `notes` are facts about the run that are not
/// numbers (the server's transport), which go into the fingerprint.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, Metric>> report;
  std::map<std::string, std::string> notes;
  std::vector<std::string> mismatches;

  void Mismatch(const std::string& what);
  void Report(const std::string& name, double value, const std::string& unit) {
    report.emplace_back(name, Metric{value, unit});
  }
};

/// Writes the spans as JSON to `path` (best effort).
void WriteSpans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
