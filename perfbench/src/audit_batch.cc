// audit-batch: one closed-loop caller into CoverageService at num_threads =
// nproc. A seeded order of Audit calls (kAuto, PATTERN-BREAKER, DEEPDIVER)
// at low, mid and high tau over three dataset classes, each (class, tau)
// group followed by an Enhance at lambda = 2. No socket is touched, so the
// time goes to mups, coverage and the thread pools.
#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "coverage/scan_coverage.h"
#include "mups/mups.h"
#include "obs/trace.h"
#include "service/coverage_service.h"
#include "workloads.h"

namespace perfbench {

using coverage::AuditRequest;
using coverage::CoverageService;
using coverage::Dataset;
using coverage::MupAlgorithm;

namespace {

struct ClassSpec {
  std::string name;
  int d;
  std::size_t n;
  std::vector<std::uint64_t> taus;  // low, mid, high
  int max_level;
};

// dense: AirBnB-style d = 13, ~1.6k distinct combinations; deep unlimited
// searches over an oracle that fits in cache.
// sparse: d = 36, ~119k combinations; level-capped searches whose bitmaps
// overflow L2.
// wide: 130 binary attributes need 260 key bits, past the 256-bit packed
// key, so the searches take the legacy vector<int> path.
// Each high tau is the largest at which Enhance at lambda = 2 stays fast.
std::vector<ClassSpec> Classes(const Args& args) {
  if (args.tiny()) {
    return {{"dense", 8, 4000, {5, 40, 400}, -1},
            {"sparse", 16, 4000, {5, 20, 100}, 2},
            {"wide", 130, 1500, {5, 10, 20}, 2}};
  }
  return {{"dense", 13, 200000, {100, 1000, 10000}, -1},
          {"sparse", 36, 200000, {200, 1000, 4000}, 3},
          {"wide", 130, 50000, {20, 50, 100}, 2}};
}

// Seconds one cycle took on the 4-vCPU reference machine (27 audits and 9
// enhances at ~7 audits/s); the run measures seconds / this many cycles.
constexpr double kReferenceCycleSeconds = 4.0;

int CyclesFor(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kReferenceCycleSeconds)));
}

const MupAlgorithm kAlgorithms[] = {MupAlgorithm::kAuto,
                                    MupAlgorithm::kPatternBreaker,
                                    MupAlgorithm::kDeepDiver};

struct Op {
  int cls;
  int tau_index;
  std::vector<MupAlgorithm> algorithms;  // seeded order within the group
};

// Per-cycle figures. Each reported latency is the lowest over the run's
// cycles and the rate the highest: on a 4-vCPU VM the host now and then
// slows every 4-thread search by 30-150% for several seconds, and that
// interference only ever adds time, so the best cycle is the steadiest
// reading of the code. The number of cycles is fixed by the run length
// (see CyclesFor), not by how fast they run, so a best-of-N figure has the
// same N for every version of the code.
struct CycleStats {
  double audit_p50_s = 0.0;
  double audit_p90_s = 0.0;
  double audits_per_s = 0.0;
  double enhance_mean_s = 0.0;
  double peak_rss_mib = 0.0;  // VmHWM over this cycle alone
};

struct LoopStats {
  Samples audit_s;
  Samples enhance_s;
  std::vector<CycleStats> cycles;
  Samples gap_s;  // caller time between one call's return and the next call
  std::map<std::string, Samples> per_class_audit_s;
  std::map<std::string, Samples> per_algo_audit_s;
};

class AuditBatch {
 public:
  AuditBatch(const Args& args, RunResult* result)
      : args_(args), result_(result), specs_(Classes(args)) {}

  bool Setup() {
    for (std::size_t c = 0; c < specs_.size(); ++c) {
      rows_.push_back(MakeBinaryRows(specs_[c].n, specs_[c].d,
                                     args_.seed * 1000 + c));
    }
    // Set-up time: aggregate and index all three classes, 21 times (~3 s).
    std::vector<double> setup;
    for (int rep = 0; rep < 21; ++rep) {
      services_.clear();
      const double t0 = NowSeconds();
      for (const Dataset& rows : rows_) {
        coverage::ServiceOptions opts;
        opts.num_threads = args_.threads;
        auto service = CoverageService::FromDataset(rows, opts);
        if (!service.ok()) {
          result_->Mismatch("audit-batch: " + service.status().ToString());
          return false;
        }
        services_.push_back(std::move(*service));
      }
      setup.push_back(NowSeconds() - t0);
    }
    result_->e2e["setup_s"] = Metric{MedianOf(setup), "s"};

    std::mt19937_64 rng(args_.seed);
    for (int c = 0; c < static_cast<int>(specs_.size()); ++c) {
      for (int t = 0; t < 3; ++t) {
        Op op{c, t, {std::begin(kAlgorithms), std::end(kAlgorithms)}};
        std::shuffle(op.algorithms.begin(), op.algorithms.end(), rng);
        cycle_.push_back(op);
      }
    }
    std::shuffle(cycle_.begin(), cycle_.end(), rng);
    return CheckAgainstNaive();
  }

  // One untimed cycle: warms caches and pools and records the reference MUP
  // set and plan size of every (class, tau) group.
  void WarmUp() { RunCycle(nullptr, nullptr, /*record=*/true); }

  LoopStats Measure(int cycles, Tracer* tracer) {
    LoopStats stats;
    for (int i = 0; i < cycles; ++i) {
      LoopStats cycle;
      ResetPeakRss();
      const double c0 = NowSeconds();
      RunCycle(&cycle, tracer, /*record=*/false);
      stats.cycles.push_back({cycle.audit_s.Median(), cycle.audit_s.Percentile(90),
                              static_cast<double>(cycle.audit_s.size()) / (NowSeconds() - c0),
                              cycle.enhance_s.Mean(), PeakRssMib(getpid())});
      stats.audit_s.Append(cycle.audit_s);
      stats.enhance_s.Append(cycle.enhance_s);
      stats.gap_s.Append(cycle.gap_s);
      for (const auto& [k, v] : cycle.per_class_audit_s) stats.per_class_audit_s[k].Append(v);
      for (const auto& [k, v] : cycle.per_algo_audit_s) stats.per_algo_audit_s[k].Append(v);
    }
    return stats;
  }

  const std::vector<Dataset>& rows() const { return rows_; }
  const std::vector<ClassSpec>& specs() const { return specs_; }

 private:
  // The small-data proof: all three algorithms agree with NAIVE over the
  // full-scan oracle on a dataset small enough to enumerate.
  bool CheckAgainstNaive() {
    const Dataset small = MakeBinaryRows(args_.tiny() ? 500 : 3000, 8,
                                         args_.seed * 1000 + 99);
    coverage::ScanCoverage scan(small);
    coverage::MupSearchOptions opts;
    opts.tau = 20;
    auto naive = coverage::FindMupsNaive(scan, small.schema(), opts);
    ++result_->attempted;
    if (!naive.ok()) {
      result_->Mismatch("audit-batch: naive " + naive.status().ToString());
      return false;
    }
    const auto expected = PatternStrings(*naive);
    auto service = CoverageService::FromDataset(small);
    for (MupAlgorithm algo : kAlgorithms) {
      AuditRequest req;
      req.tau = opts.tau;
      req.algorithm = algo;
      auto res = service->Audit(req);
      ++result_->attempted;
      if (!res.ok() || PatternStrings(res->mups) != expected) {
        result_->Mismatch("audit-batch: " + coverage::ToString(algo) +
                          " disagrees with NAIVE over ScanCoverage");
      }
    }
    return result_->correct;
  }

  void RunCycle(LoopStats* stats, Tracer* tracer, bool record) {
    for (const Op& op : cycle_) {
      const ClassSpec& spec = specs_[static_cast<std::size_t>(op.cls)];
      const CoverageService& service = services_[static_cast<std::size_t>(op.cls)];
      const std::uint64_t tau = spec.taus[static_cast<std::size_t>(op.tau_index)];
      const int key = op.cls * 3 + op.tau_index;
      std::vector<coverage::Pattern> mups;
      for (MupAlgorithm algo : op.algorithms) {
        AuditRequest req;
        req.tau = tau;
        req.max_level = spec.max_level;
        req.algorithm = algo;
        coverage::obs::Trace trace("audit");
        const double start = NowSeconds();
        if (stats != nullptr && last_return_ > 0) stats->gap_s.Add(start - last_return_);
        auto res = [&] {
          Span span(tracer, "service.audit");
          return service.Audit(req, tracer != nullptr ? &trace : nullptr);
        }();
        const double secs = NowSeconds() - start;
        last_return_ = NowSeconds();
        ++result_->attempted;
        if (!res.ok()) {
          result_->Mismatch("audit-batch: " + res.status().ToString());
          continue;
        }
        if (stats != nullptr) {
          stats->audit_s.Add(secs);
          stats->per_class_audit_s[spec.name].Add(secs);
          stats->per_algo_audit_s[spec.name + "." + coverage::ToString(algo)].Add(secs);
        }
        std::vector<std::string> got = PatternStrings(res->mups);
        if (args_.corrupt && !record && algo == MupAlgorithm::kAuto && !got.empty()) {
          got.pop_back();
        }
        if (record && algo == op.algorithms.front()) reference_[key] = got;
        if (got != reference_[key]) {
          result_->Mismatch("audit-batch: " + spec.name + " tau=" +
                            std::to_string(tau) + " " + coverage::ToString(algo) +
                            " returned a different MUP set");
        }
        mups = std::move(res->mups);
      }
      coverage::EnhanceRequest ereq;
      ereq.tau = tau;
      ereq.lambda = 2;
      ereq.mups = std::move(mups);
      const double start = NowSeconds();
      auto plan = [&] {
        Span span(tracer, "service.enhance");
        return service.Enhance(ereq);
      }();
      const double secs = NowSeconds() - start;
      last_return_ = NowSeconds();
      ++result_->attempted;
      if (!plan.ok()) {
        result_->Mismatch("audit-batch: enhance " + plan.status().ToString());
        continue;
      }
      if (stats != nullptr) stats->enhance_s.Add(secs);
      const std::uint64_t tuples = plan->TotalTuples();
      if (record) plan_tuples_[key] = tuples;
      if (tuples != plan_tuples_[key]) {
        result_->Mismatch("audit-batch: enhance plan size changed for " + spec.name);
      }
    }
  }

  const Args& args_;
  RunResult* result_;
  std::vector<ClassSpec> specs_;
  std::vector<Dataset> rows_;
  std::vector<CoverageService> services_;
  std::vector<Op> cycle_;
  std::map<int, std::vector<std::string>> reference_;
  std::map<int, std::uint64_t> plan_tuples_;
  double last_return_ = 0.0;
};

}  // namespace

void RunAuditBatch(const Args& args, RunResult* result) {
  AuditBatch bench(args, result);
  if (!bench.Setup()) return;
  bench.WarmUp();
  if (!args.trace) {
    const LoopStats s = bench.Measure(CyclesFor(args.seconds), nullptr);
    auto values = [&](double CycleStats::*field) {
      std::vector<double> v;
      for (const CycleStats& c : s.cycles) v.push_back(c.*field);
      return v;
    };
    auto lowest = [&](double CycleStats::*field) {
      const std::vector<double> v = values(field);
      return *std::min_element(v.begin(), v.end());
    };
    const std::vector<double> rates = values(&CycleStats::audits_per_s);
    const double audit_p50 = lowest(&CycleStats::audit_p50_s);
    const double audit_p90 = lowest(&CycleStats::audit_p90_s);
    const double audits_per_s = *std::max_element(rates.begin(), rates.end());
    const double enhance_mean = lowest(&CycleStats::enhance_mean_s);
    result->e2e["op_p50_ms"] = Metric{1e3 * audit_p50, "ms"};
    result->e2e["ops_per_s"] = Metric{audits_per_s, "1/s"};
    // Memory is the median of the per-cycle peaks, as in ingest-window.
    result->e2e["peak_rss_mib"] = Metric{MedianOf(values(&CycleStats::peak_rss_mib)), "MiB"};
    result->Report("process_peak_rss_mib", PeakRssMib(getpid()), "MiB");
    result->Report("audit_p50_s", audit_p50, "s");
    result->Report("audit_p90_s", audit_p90, "s");
    result->Report("audits_per_s", audits_per_s, "1/s");
    result->Report("audit_samples", static_cast<double>(s.audit_s.size()), "count");
    result->Report("cycles", static_cast<double>(s.cycles.size()), "count");
    // Mean, not median: the nine Enhance calls of a cycle differ in cost,
    // and a median jumps between them from seed to seed.
    result->Report("enhance_mean_ms", 1e3 * enhance_mean, "ms");
    result->Report("enhance_p50_ms", 1e3 * s.enhance_s.Median(), "ms");
    result->Report("audit_p50_s.median_cycle", MedianOf(values(&CycleStats::audit_p50_s)), "s");
    result->Report("audits_per_s.median_cycle", MedianOf(values(&CycleStats::audits_per_s)), "1/s");
    for (const auto& [cls, samples] : s.per_class_audit_s) {
      result->Report("audit_p50_s." + cls, samples.Median(), "s");
    }
    for (const auto& spec : bench.specs()) {
      const auto& algo = s.per_algo_audit_s;
      const double auto_s = algo.at(spec.name + ".AUTO").Median();
      const double best = std::min(algo.at(spec.name + ".PATTERN-BREAKER").Median(),
                                   algo.at(spec.name + ".DEEPDIVER").Median());
      result->Report("auto_regret." + spec.name, auto_s / best, "ratio");
    }
    return;
  }
  // Traced run: half the time untraced, half traced (the overhead), then
  // the layer sweep on the same three classes.
  Tracer tracer(true);
  const LoopStats plain = bench.Measure(CyclesFor(args.seconds / 2), nullptr);
  const LoopStats traced = bench.Measure(CyclesFor(args.seconds / 2), &tracer);
  Samples gaps = plain.gap_s;
  gaps.Append(traced.gap_s);
  SetLoopLayerMetrics(1e6 * gaps.Percentile(99), 1.0, traced.audit_s.Median(),
                      plain.audit_s.Median(), result);
  const auto& specs = bench.specs();
  std::vector<SweepClass> classes;
  for (std::size_t c = 0; c < specs.size(); ++c) {
    classes.push_back({&bench.rows()[c], specs[c].taus[1], specs[c].max_level});
  }
  // The engine section replays the dense class, narrowed to 11 attributes:
  // 2k-row batches (250 in the tiny run) through a window of eight.
  const std::size_t batch = args.tiny() ? 250 : 2000;
  const Dataset stream_rows = StreamRows(bench.rows()[0], batch * 16);
  SweepLayers(args, classes, {&stream_rows, 300, -1, batch, batch * 8},
              &tracer, result);
  WriteSpans(tracer, args.workdir + "/spans.json");
}

}  // namespace perfbench
