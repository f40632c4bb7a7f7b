// ingest-window: one writer appends seeded batches to a durable (fsync)
// session with a sliding window while one reader issues Session::QueryBatch
// and Session::Audit against the same epochs. The time goes to the engine's
// append / evict / climb and to the WAL.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "persist/durable_engine.h"
#include "service/coverage_service.h"
#include "workloads.h"

namespace perfbench {

using coverage::CoverageService;
using coverage::Dataset;

namespace {

struct Params {
  int d;
  std::size_t batch_rows;
  std::size_t window_rows;
  std::uint64_t tau;
  int max_level;
  std::size_t pool_batches;  // distinct batches; the stream cycles through them
  int read_probes;
  int think_ms;             // reader pause between calls
};

// AirBnB-style rows, d = 11: 2k-row batches through a 30k-row window at
// unlimited level. (At d = 13 one windowed append takes ~1 s, too few
// samples for a run.)
Params ParamsFor(const Args& args) {
  if (args.tiny()) return {8, 200, 1000, 20, -1, 24, 16, 2};
  return {11, 2000, 30000, 300, -1, 64, 128, 2};
}

// The measured time is cut into kChunks equal chunks. The append latency
// and the row rate are the best chunk's (lowest p50, highest rate): on a
// 4-vCPU VM host interference slows whole chunks by 10-40% and only ever
// adds time, so the best chunk is the steadiest reading of the code, and
// kChunks is fixed, so the best-of-N keeps its N whatever the code's
// speed. Memory is the median chunk's.
constexpr std::size_t kChunks = 5;
// Set-up is ~0.13 s; thirty of them (~4 s) give a median that holds from
// run to run.
constexpr int kSetupReps = 30;

struct LoopStats {
  Samples append_s;
  Samples read_s;
  Samples gap_s;
  std::vector<Samples> append_chunks = std::vector<Samples>(kChunks);
  std::vector<Samples> read_chunks = std::vector<Samples>(kChunks);
  std::vector<double> rows_chunks = std::vector<double>(kChunks, 0.0);
  // VmHWM of each chunk alone (reset at the chunk's start). The process's
  // lifetime peak falls in three modes 8 MiB apart from run to run; the
  // median chunk peak does not.
  std::vector<double> peak_rss_chunks = std::vector<double>(kChunks, 0.0);
  // First append start and last append end in each chunk: rows over that
  // span is the chunk's throughput (rows over the fixed chunk length would
  // be quantized to whole batches).
  std::vector<double> first_start = std::vector<double>(kChunks, 0.0);
  std::vector<double> last_end = std::vector<double>(kChunks, 0.0);
  double chunk_seconds = 0.0;

  // The per-chunk values of the chunks that saw at least one append.
  std::vector<double> PerChunk(double (*stat)(const LoopStats&, std::size_t)) const {
    std::vector<double> v;
    for (std::size_t c = 0; c < kChunks; ++c) {
      if (!append_chunks[c].empty()) v.push_back(stat(*this, c));
    }
    return v;
  }
  double ChunkMedian(double (*stat)(const LoopStats&, std::size_t)) const {
    return MedianOf(PerChunk(stat));
  }
  double ChunkMin(double (*stat)(const LoopStats&, std::size_t)) const {
    const std::vector<double> v = PerChunk(stat);
    return *std::min_element(v.begin(), v.end());
  }
  double ChunkMax(double (*stat)(const LoopStats&, std::size_t)) const {
    const std::vector<double> v = PerChunk(stat);
    return *std::max_element(v.begin(), v.end());
  }
};

class IngestWindow {
 public:
  IngestWindow(const Args& args, RunResult* result)
      : args_(args), result_(result), p_(ParamsFor(args)) {}

  bool Setup() {
    const std::size_t prefill = p_.window_rows / p_.batch_rows;
    for (std::size_t b = 0; b < p_.pool_batches; ++b) {
      batches_.push_back(MakeBinaryRows(p_.batch_rows, p_.d, args_.seed * 100003 + b));
    }
    std::mt19937_64 rng(args_.seed);
    for (int i = 0; i < p_.read_probes; ++i) {
      read_.queries.push_back(
          {RandomProbe(batches_[static_cast<std::size_t>(i) % prefill], 1 + i % 3, rng),
           i % 2 == 0 ? 0 : p_.tau});
    }
    // Set-up time: open a durable session and prefill its window,
    // kSetupReps times; the last session stays open for the measured loop.
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      session_.reset();
      const std::string dir = args_.workdir + "/session-" + std::to_string(rep);
      std::filesystem::remove_all(dir);
      const double t0 = NowSeconds();
      CoverageService::SessionOptions opts;
      opts.tau = p_.tau;
      opts.max_level = p_.max_level;
      opts.num_threads = args_.threads;
      opts.window_max_rows = p_.window_rows;
      opts.durability = coverage::DurabilityMode::kFsync;
      auto session = CoverageService::OpenDurableSession(dir, batches_[0].schema(), opts);
      if (!session.ok()) {
        result_->Mismatch("ingest-window: " + session.status().ToString());
        return false;
      }
      session_ = std::make_unique<CoverageService::Session>(std::move(*session));
      for (next_ = 0; next_ < prefill; ++next_) {
        if (!session_->Append(Batch(next_)).ok()) {
          result_->Mismatch("ingest-window: prefill append failed");
          return false;
        }
      }
      setup.push_back(NowSeconds() - t0);
      if (rep + 1 < kSetupReps) {
        session_.reset();
        std::filesystem::remove_all(dir);
      }
    }
    result_->e2e["setup_s"] = Metric{MedianOf(setup), "s"};
    return true;
  }

  LoopStats Measure(double seconds, Tracer* tracer) {
    LoopStats stats;
    stats.chunk_seconds = seconds / kChunks;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> read_failures{0};
    const double start = NowSeconds();
    auto chunk_of = [&](double t) {
      return std::min(kChunks - 1, static_cast<std::size_t>((t - start) / stats.chunk_seconds));
    };
    // The reader owns read_s and read_chunks until it is joined.
    std::thread reader([&] {
      bool audit = false;
      while (!stop.load()) {
        const double t0 = NowSeconds();
        if (audit) {
          (void)session_->Audit();
        } else if (!session_->QueryBatch(read_).ok()) {
          read_failures.fetch_add(1);
        }
        const double secs = NowSeconds() - t0;
        stats.read_s.Add(secs);
        stats.read_chunks[chunk_of(t0)].Add(secs);
        audit = !audit;
        std::this_thread::sleep_for(std::chrono::milliseconds(p_.think_ms));
      }
    });
    double last_return = 0.0;
    std::size_t rss_chunk = 0;
    ResetPeakRss();
    while (NowSeconds() - start < seconds) {
      const Dataset& batch = Batch(next_++);
      coverage::obs::Trace trace("append");
      const double t0 = NowSeconds();
      if (last_return > 0) stats.gap_s.Add(t0 - last_return);
      auto res = [&] {
        Span span(tracer, "session.append");
        return session_->Append(batch, tracer != nullptr ? &trace : nullptr);
      }();
      const double secs = NowSeconds() - t0;
      last_return = NowSeconds();
      ++result_->attempted;
      if (!res.ok()) {
        result_->Mismatch("ingest-window: append " + res.status().ToString());
        break;
      }
      const std::size_t c = chunk_of(t0);
      if (c != rss_chunk) {
        stats.peak_rss_chunks[rss_chunk] = PeakRssMib(getpid());
        ResetPeakRss();
        rss_chunk = c;
      }
      stats.append_s.Add(secs);
      stats.append_chunks[c].Add(secs);
      stats.rows_chunks[c] += static_cast<double>(batch.num_rows());
      if (stats.first_start[c] == 0.0) stats.first_start[c] = t0;
      stats.last_end[c] = last_return;
    }
    stats.peak_rss_chunks[rss_chunk] = PeakRssMib(getpid());
    stop.store(true);
    reader.join();
    result_->attempted += stats.read_s.size();
    for (std::uint64_t i = 0; i < read_failures.load(); ++i) {
      result_->Mismatch("ingest-window: session query failed");
    }
    return stats;
  }

  // The session's maintained MUP set must equal a fresh audit of exactly
  // the rows its window holds (the last window_rows appended).
  void CheckWindow() {
    ++result_->attempted;
    const Dataset window = WindowRows();
    if (session_->num_rows() != window.num_rows()) {
      result_->Mismatch("ingest-window: window holds " +
                        std::to_string(session_->num_rows()) + " rows, expected " +
                        std::to_string(window.num_rows()));
      return;
    }
    coverage::ServiceOptions opts;
    opts.num_threads = args_.threads;
    auto fresh = CoverageService::FromDataset(window, opts);
    coverage::AuditRequest req;
    req.tau = p_.tau;
    req.max_level = p_.max_level;
    req.algorithm = coverage::MupAlgorithm::kDeepDiver;
    auto expected = fresh->Audit(req);
    std::vector<std::string> got = PatternStrings(session_->Audit().mups);
    if (args_.corrupt && !got.empty()) got.pop_back();
    if (!expected.ok() || got != PatternStrings(expected->mups)) {
      result_->Mismatch("ingest-window: session MUPs differ from a fresh audit of the window");
    }
  }

  Dataset WindowRows() const {
    Dataset window(batches_[0].schema());
    const std::size_t in_window = p_.window_rows / p_.batch_rows;
    for (std::size_t b = next_ - in_window; b < next_; ++b) {
      for (std::size_t r = 0; r < Batch(b).num_rows(); ++r) window.AppendRow(Batch(b).row(r));
    }
    return window;
  }

  const Params& params() const { return p_; }
  std::uint64_t Checkpoints() const {
    return session_->durable()->persist_stats().checkpoints_written;
  }

  void Close() {
    session_.reset();
    std::filesystem::remove_all(args_.workdir + "/session-" + std::to_string(kSetupReps - 1));
  }

 private:
  const Dataset& Batch(std::size_t i) const { return batches_[i % batches_.size()]; }

  const Args& args_;
  RunResult* result_;
  Params p_;
  std::vector<Dataset> batches_;
  coverage::QueryBatchRequest read_;
  std::unique_ptr<CoverageService::Session> session_;
  std::size_t next_ = 0;
};

}  // namespace

void RunIngestWindow(const Args& args, RunResult* result) {
  IngestWindow bench(args, result);
  if (!bench.Setup()) return;
  if (!args.trace) {
    const LoopStats s = bench.Measure(args.seconds, nullptr);
    bench.CheckWindow();
    const std::uint64_t checkpoints = bench.Checkpoints();
    bench.Close();
    auto chunk_p50 = [](const LoopStats& l, std::size_t c) {
      return l.append_chunks[c].Median();
    };
    auto chunk_rate = [](const LoopStats& l, std::size_t c) {
      return l.rows_chunks[c] / (l.last_end[c] - l.first_start[c]);
    };
    const double append_p50 = s.ChunkMin(chunk_p50);
    const double append_p90 = s.ChunkMin([](const LoopStats& l, std::size_t c) {
      return l.append_chunks[c].Percentile(90);
    });
    const double rows_per_s = s.ChunkMax(chunk_rate);
    const double read_p50 = s.ChunkMedian([](const LoopStats& l, std::size_t c) {
      return l.read_chunks[c].Median();
    });
    result->e2e["op_p50_ms"] = Metric{1e3 * append_p50, "ms"};
    result->e2e["ops_per_s"] = Metric{rows_per_s, "1/s"};
    result->e2e["peak_rss_mib"] = Metric{
        s.ChunkMedian([](const LoopStats& l, std::size_t c) { return l.peak_rss_chunks[c]; }),
        "MiB"};
    result->Report("process_peak_rss_mib", PeakRssMib(getpid()), "MiB");
    result->Report("ingest_rows_per_s", rows_per_s, "1/s");
    result->Report("append_p50_ms", 1e3 * append_p50, "ms");
    result->Report("append_p90_ms", 1e3 * append_p90, "ms");
    result->Report("append_p50_ms.median_chunk", 1e3 * s.ChunkMedian(chunk_p50), "ms");
    result->Report("ingest_rows_per_s.median_chunk", s.ChunkMedian(chunk_rate), "1/s");
    result->Report("append_samples", static_cast<double>(s.append_s.size()), "count");
    result->Report("read_p50_ms", 1e3 * read_p50, "ms");
    result->Report("read_p90_ms", 1e3 * s.read_s.Percentile(90), "ms");
    result->Report("read_p99_ms", 1e3 * s.read_s.Percentile(99), "ms");
    result->Report("read_samples", static_cast<double>(s.read_s.size()), "count");
    result->Report("checkpoints", static_cast<double>(checkpoints), "count");
    return;
  }
  Tracer tracer(true);
  const LoopStats plain = bench.Measure(args.seconds / 2, nullptr);
  const LoopStats traced = bench.Measure(args.seconds / 2, &tracer);
  bench.CheckWindow();
  const Dataset window = bench.WindowRows();
  bench.Close();
  Samples gaps = plain.gap_s;
  gaps.Append(traced.gap_s);
  SetLoopLayerMetrics(1e6 * gaps.Percentile(99), 2.0, traced.append_s.Median(),
                      plain.append_s.Median(), result);
  const Params& p = bench.params();
  SweepLayers(args, {{&window, p.tau, p.max_level}},
              {&window, p.tau, p.max_level, p.batch_rows, p.window_rows / 2},
              &tracer, result);
  WriteSpans(tracer, args.workdir + "/spans.json");
}

}  // namespace perfbench
