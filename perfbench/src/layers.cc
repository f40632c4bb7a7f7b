// The traced layer sweep: every call into a layer's public functions is
// wrapped in a span from this file (no span or counter lives in src/), and
// the per-layer metrics are read back from those spans plus the stats the
// program already returns (MupSearchStats, EngineUpdateStats, PersistStats,
// the obs::Trace stages of Session::Append).
#include <algorithm>
#include <filesystem>
#include <random>
#include <string>

#include "coverage/bitmap_coverage.h"
#include "dataset/aggregate.h"
#include "mups/mups.h"
#include "obs/trace.h"
#include "persist/durable_engine.h"
#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/wire.h"
#include "server/wire_binary.h"
#include "service/coverage_service.h"
#include "workloads.h"

namespace perfbench {

using coverage::AggregatedData;
using coverage::AuditRequest;
using coverage::BitmapCoverage;
using coverage::CoverageServer;
using coverage::CoverageServerOptions;
using coverage::CoverageService;
using coverage::Dataset;
using coverage::MupAlgorithm;
using coverage::MupSearchOptions;
using coverage::MupSearchStats;
using coverage::Pattern;
using coverage::QueryContext;

namespace {

constexpr int kProbes = 2000;       // coverage kernel probes per class
constexpr int kRepeats = 15;        // medians for the sub-millisecond calls
constexpr int kQueryBatchSize = 64;

// Median wall time of `reps` calls of `fn`, each wrapped in a span `name`.
template <typename Fn>
double TimedMedian(Tracer* tracer, const std::string& name, int reps, Fn fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowSeconds();
    {
      Span span(tracer, name);
      fn();
    }
    s.Add(NowSeconds() - t0);
  }
  return s.Median();
}

std::string QueryBody(const std::vector<Pattern>& probes, std::uint64_t tau) {
  std::string body = "{\"queries\": [";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (i > 0) body += ", ";
    // Half exact counts, half threshold checks.
    body += "{\"pattern\": \"" + probes[i].ToString() + "\", \"tau\": " +
            std::to_string(i % 2 == 0 ? 0 : tau) + "}";
  }
  return body + "]}";
}

coverage::http::Request Post(const std::string& target, std::string body,
                             bool binary) {
  coverage::http::Request req;
  req.method = "POST";
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = std::move(body);
  if (binary) req.headers.push_back({"Accept", "application/x-coverage-bin"});
  return req;
}

struct Accum {
  void Add(const std::string& name, double v) { values[name] += v; }
  std::map<std::string, double> values;
};

void SweepClassLayers(const Args& args, const SweepClass& cls, int index,
                      Tracer* tracer, Accum* acc, RunResult* result) {
  const Dataset& data = *cls.rows;
  const int n_threads = args.threads;
  std::mt19937_64 rng(args.seed * 7919 + static_cast<std::uint64_t>(index));

  // dataset + coverage index.
  double t0 = NowSeconds();
  std::unique_ptr<AggregatedData> agg;
  {
    Span span(tracer, "dataset.aggregate");
    agg = std::make_unique<AggregatedData>(data);
  }
  acc->Add("dataset.aggregate_s", NowSeconds() - t0);
  acc->Add("dataset.combos", static_cast<double>(agg->num_combinations()));
  t0 = NowSeconds();
  std::unique_ptr<BitmapCoverage> oracle;
  {
    Span span(tracer, "coverage.index_build");
    oracle = std::make_unique<BitmapCoverage>(*agg);
  }
  acc->Add("coverage.index_build_s", NowSeconds() - t0);

  // coverage kernel, per probe.
  std::vector<Pattern> probes;
  for (int i = 0; i < kProbes; ++i) probes.push_back(RandomProbe(data, 1 + i % 3, rng));
  QueryContext ctx;
  std::uint64_t sink = 0;
  t0 = NowSeconds();
  {
    Span span(tracer, "coverage.count");
    for (const Pattern& p : probes) sink += oracle->Coverage(p, ctx);
  }
  acc->Add("coverage.count_us", (NowSeconds() - t0) * 1e6 / kProbes);
  t0 = NowSeconds();
  {
    Span span(tracer, "coverage.atleast");
    for (const Pattern& p : probes) sink += oracle->CoverageAtLeast(p, cls.tau, ctx) ? 1 : 0;
  }
  acc->Add("coverage.atleast_us", (NowSeconds() - t0) * 1e6 / kProbes);
  if (sink == 0) result->Mismatch("layer sweep: every probe had zero coverage");

  // mups: both searches at 1 and N threads, each timed directly.
  MupSearchOptions opts;
  opts.tau = cls.tau;
  opts.max_level = cls.max_level;
  std::vector<std::string> reference;
  double direct_deepdiver_tn = 0.0;
  for (const char* algo : {"breaker", "deepdiver"}) {
    for (int threads : {1, n_threads}) {
      opts.num_threads = threads;
      MupSearchStats stats;
      std::vector<Pattern> mups;
      const std::string tag = threads == 1 ? "t1" : "tN";
      const std::string name = std::string("mups.") + algo + "." + tag;
      t0 = NowSeconds();
      {
        Span span(tracer, name);
        mups = std::string(algo) == "breaker"
                   ? coverage::FindMupsPatternBreaker(*oracle, opts, &stats)
                   : coverage::FindMupsDeepDiver(*oracle, opts, &stats);
      }
      const double secs = NowSeconds() - t0;
      acc->Add(std::string("mups.") + algo + "_s." + tag, secs);
      if (threads == n_threads) {
        acc->Add("mups.coverage_queries", static_cast<double>(stats.coverage_queries));
        acc->Add("mups.nodes_generated", static_cast<double>(stats.nodes_generated));
        acc->Add("mups.nodes_pruned", static_cast<double>(stats.nodes_pruned));
        acc->Add("mups.num_mups", static_cast<double>(mups.size()));
        if (std::string(algo) == "deepdiver") direct_deepdiver_tn = secs;
      }
      std::sort(mups.begin(), mups.end());
      auto strings = PatternStrings(mups);
      if (reference.empty()) {
        reference = std::move(strings);
      } else if (strings != reference) {
        result->Mismatch("layer sweep: " + name + " MUP set differs");
      }
    }
  }

  // service: planner regret and the façade's overhead over the direct call.
  coverage::ServiceOptions sopts;
  sopts.num_threads = n_threads;
  auto service = CoverageService::FromDataset(data, sopts);
  if (!service.ok()) {
    result->Mismatch("layer sweep: " + service.status().ToString());
    return;
  }
  std::map<MupAlgorithm, double> audit_s;
  coverage::AuditResult last_audit;
  for (MupAlgorithm algo : {MupAlgorithm::kAuto, MupAlgorithm::kPatternBreaker,
                            MupAlgorithm::kDeepDiver}) {
    AuditRequest req;
    req.tau = cls.tau;
    req.max_level = cls.max_level;
    req.algorithm = algo;
    t0 = NowSeconds();
    auto res = [&] {
      Span span(tracer, "service.audit");
      return service->Audit(req);
    }();
    audit_s[algo] = NowSeconds() - t0;
    if (!res.ok() || PatternStrings(res->mups) != reference) {
      result->Mismatch("layer sweep: service audit " + coverage::ToString(algo));
    } else {
      last_audit = *res;
    }
  }
  acc->Add("service.auto_regret",
           audit_s[MupAlgorithm::kAuto] /
               std::min(audit_s[MupAlgorithm::kPatternBreaker],
                        audit_s[MupAlgorithm::kDeepDiver]));
  acc->Add("service.audit_overhead_s",
           audit_s[MupAlgorithm::kDeepDiver] - direct_deepdiver_tn);

  std::vector<Pattern> batch_probes(probes.begin(), probes.begin() + kQueryBatchSize);
  coverage::QueryBatchRequest qreq;
  for (std::size_t i = 0; i < batch_probes.size(); ++i) {
    qreq.queries.push_back({batch_probes[i], i % 2 == 0 ? 0 : cls.tau});
  }
  acc->Add("service.query_batch_ms",
           1e3 * TimedMedian(tracer, "service.query_batch", kRepeats,
                             [&] { (void)service->QueryBatch(qreq); }));

  // enhancement: plan from the audited MUPs.
  coverage::EnhanceRequest ereq;
  ereq.tau = cls.tau;
  ereq.lambda = 2;
  ereq.mups = last_audit.mups;
  acc->Add("enhancement.plan_s",
           TimedMedian(tracer, "enhancement.plan", 3,
                       [&] { (void)service->Enhance(ereq); }));

  // server: encoders on the audit result, in-process Handle, then the same
  // requests over loopback.
  const coverage::Schema schema = service->schema();
  std::string json_bytes;
  std::string bin_bytes;
  acc->Add("server.encode_ms.json",
           1e3 * TimedMedian(tracer, "server.encode.json", kRepeats, [&] {
             json_bytes = coverage::json::Serialize(
                 coverage::wire::ToJson(last_audit, schema));
           }));
  acc->Add("server.encode_ms.bin",
           1e3 * TimedMedian(tracer, "server.encode.bin", kRepeats, [&] {
             bin_bytes = coverage::wire::EncodeAuditResultBinary(last_audit);
           }));
  acc->Add("server.response_bytes.json", static_cast<double>(json_bytes.size()));
  acc->Add("server.response_bytes.bin", static_cast<double>(bin_bytes.size()));

  CoverageServerOptions server_opts;
  server_opts.http.port = 0;
  server_opts.http.num_threads = n_threads;
  CoverageServer server(std::move(*service), server_opts);
  const std::string query_body = QueryBody(batch_probes, cls.tau);
  const std::string audit_body =
      "{\"tau\": " + std::to_string(cls.tau) + ", \"max_level\": " +
      std::to_string(cls.max_level) + ", \"algorithm\": \"breaker\"}";
  const double handle_query_s =
      TimedMedian(tracer, "server.handle.query", kRepeats, [&] {
        auto resp = server.Handle(Post("/v1/query", query_body, false));
        if (resp.status != 200) result->Mismatch("layer sweep: handle query");
      });
  acc->Add("server.handle_ms.query", 1e3 * handle_query_s);
  acc->Add("server.handle_ms.audit",
           1e3 * TimedMedian(tracer, "server.handle.audit", 3, [&] {
             auto resp = server.Handle(Post("/v1/audit", audit_body, true));
             if (resp.status != 200) result->Mismatch("layer sweep: handle audit");
           }));

  if (!server.Start().ok()) {
    result->Mismatch("layer sweep: server failed to start");
    return;
  }
  auto client = coverage::http::HttpClient::Connect("127.0.0.1", server.port(), 5000);
  if (!client.ok()) {
    result->Mismatch("layer sweep: " + client.status().ToString());
  } else {
    const double loop_s = TimedMedian(tracer, "net.query", kRepeats, [&] {
      auto resp = client->Post("/v1/query", query_body);
      if (!resp.ok() || resp->status != 200) result->Mismatch("layer sweep: net query");
    });
    acc->Add("net.transport_us", 1e6 * (loop_s - handle_query_s));
    acc->Add("net.healthz_us", 1e6 * TimedMedian(tracer, "net.healthz", kRepeats, [&] {
      auto resp = client->Get("/healthz");
      if (!resp.ok() || resp->status != 200) result->Mismatch("layer sweep: healthz");
    }));
  }
  server.Stop();
  server.Wait();
}

// engine + persist: replay the stream through a durable (fsync) session
// with a sliding window, then read from it.
void SweepStreamLayers(const Args& args, const SweepStream& st, Tracer* tracer,
                       Accum* acc, RunResult* result) {
  const std::string dir = args.workdir + "/sweep-session";
  std::filesystem::remove_all(dir);
  CoverageService::SessionOptions sopts;
  sopts.tau = st.tau;
  sopts.max_level = st.max_level;
  sopts.num_threads = args.threads;
  sopts.window_max_rows = st.window_rows;
  sopts.durability = coverage::DurabilityMode::kFsync;
  auto session = CoverageService::OpenDurableSession(dir, st.rows->schema(), sopts);
  if (!session.ok()) {
    result->Mismatch("layer sweep: " + session.status().ToString());
    return;
  }
  Samples append_s;
  double fsync_s = 0.0;
  double queries = 0.0;
  double rows = 0.0;
  double retracted = 0.0;
  double rechecked = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  coverage::persist::PersistStats prev = session->durable()->persist_stats();
  const std::size_t n = st.rows->num_rows();
  for (std::size_t begin = 0; begin + st.batch_rows <= n; begin += st.batch_rows) {
    const Dataset batch = Slice(*st.rows, begin, begin + st.batch_rows);
    coverage::obs::Trace trace("append");
    const double t0 = NowSeconds();
    auto stats = [&] {
      Span span(tracer, "engine.append");
      return session->Append(batch, &trace);
    }();
    if (!stats.ok()) {
      result->Mismatch("layer sweep: " + stats.status().ToString());
      return;
    }
    append_s.Add(NowSeconds() - t0);
    for (const auto& [stage, secs] : trace.stages()) {
      if (stage == "wal_fsync") fsync_s += secs;
    }
    queries += static_cast<double>(stats->coverage_queries);
    rows += static_cast<double>(stats->rows_appended);
    retracted += static_cast<double>(stats->rows_retracted);
    rechecked += static_cast<double>(stats->mups_rechecked);
    // PersistStats counts the live WAL segment; a rotation restarts it.
    const auto now = session->durable()->persist_stats();
    fsyncs += now.sync_calls >= prev.sync_calls ? now.sync_calls - prev.sync_calls : now.sync_calls;
    wal_bytes += now.wal_bytes >= prev.wal_bytes ? now.wal_bytes - prev.wal_bytes : now.wal_bytes;
    prev = now;
  }
  acc->Add("engine.append_ms", 1e3 * append_s.Median());
  acc->Add("engine.queries_per_row", rows > 0 ? queries / rows : 0.0);
  acc->Add("engine.rows_retracted", retracted);
  acc->Add("engine.mups_rechecked", rechecked);
  acc->Add("persist.fsyncs", static_cast<double>(fsyncs));
  acc->Add("persist.wal_bytes_per_row", rows > 0 ? wal_bytes / rows : 0.0);
  acc->Add("persist.fsync_share", append_s.Sum() > 0 ? fsync_s / append_s.Sum() : 0.0);

  std::mt19937_64 rng(args.seed * 104729);
  coverage::QueryBatchRequest qreq;
  for (int i = 0; i < kQueryBatchSize; ++i) {
    qreq.queries.push_back({RandomProbe(*st.rows, 1 + i % 3, rng), i % 2 == 0 ? 0 : st.tau});
  }
  acc->Add("engine.read_ms", 1e3 * TimedMedian(tracer, "engine.read", kRepeats, [&] {
    if (!session->QueryBatch(qreq).ok()) result->Mismatch("layer sweep: session query");
  }));
  acc->Add("engine.audit_read_ms", 1e3 * TimedMedian(tracer, "engine.audit_read", kRepeats,
                                                    [&] { (void)session->Audit(); }));
}

}  // namespace

coverage::Dataset StreamRows(const coverage::Dataset& rows, std::size_t n) {
  std::vector<int> attrs;
  for (int a = 0; a < std::min(rows.num_attributes(), 11); ++a) attrs.push_back(a);
  return Slice(rows, 0, std::min(n, rows.num_rows())).Project(attrs);
}

void SweepLayers(const Args& args, const std::vector<SweepClass>& classes,
                 const SweepStream& stream, Tracer* tracer,
                 RunResult* result) {
  Accum acc;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    SweepClassLayers(args, classes[i], static_cast<int>(i), tracer, &acc, result);
  }
  // Per-probe and per-call figures are means over the classes; times and
  // counts of whole searches are sums.
  const double k = static_cast<double>(classes.size());
  for (const char* mean_key :
       {"coverage.count_us", "coverage.atleast_us", "service.auto_regret",
        "service.query_batch_ms", "server.handle_ms.query",
        "server.handle_ms.audit", "server.encode_ms.json",
        "server.encode_ms.bin", "server.response_bytes.json",
        "server.response_bytes.bin", "net.transport_us", "net.healthz_us"}) {
    acc.values[mean_key] /= k;
  }
  auto& v = acc.values;
  v["mups.speedup_tN"] = (v["mups.breaker_s.t1"] + v["mups.deepdiver_s.t1"]) /
                         (v["mups.breaker_s.tN"] + v["mups.deepdiver_s.tN"]);
  v["mups.mups_per_kquery"] =
      v["mups.coverage_queries"] > 0
          ? v["mups.num_mups"] / (v["mups.coverage_queries"] / 1000.0)
          : 0.0;
  v.erase("mups.num_mups");
  SweepStreamLayers(args, stream, tracer, &acc, result);
  std::filesystem::remove_all(args.workdir + "/sweep-session");

  static const std::map<std::string, std::string> kUnits = {
      {"dataset.aggregate_s", "s"}, {"dataset.combos", "count"},
      {"coverage.index_build_s", "s"}, {"coverage.count_us", "us"},
      {"coverage.atleast_us", "us"}, {"mups.breaker_s.t1", "s"},
      {"mups.breaker_s.tN", "s"}, {"mups.deepdiver_s.t1", "s"},
      {"mups.deepdiver_s.tN", "s"}, {"mups.speedup_tN", "ratio"},
      {"mups.coverage_queries", "count"}, {"mups.nodes_generated", "count"},
      {"mups.nodes_pruned", "count"}, {"mups.mups_per_kquery", "1/kquery"},
      {"service.auto_regret", "ratio"}, {"service.audit_overhead_s", "s"},
      {"service.query_batch_ms", "ms"}, {"enhancement.plan_s", "s"},
      {"server.handle_ms.query", "ms"}, {"server.handle_ms.audit", "ms"},
      {"server.encode_ms.json", "ms"}, {"server.encode_ms.bin", "ms"},
      {"server.response_bytes.json", "bytes"},
      {"server.response_bytes.bin", "bytes"}, {"net.transport_us", "us"},
      {"net.healthz_us", "us"}, {"engine.append_ms", "ms"},
      {"engine.queries_per_row", "1/row"}, {"engine.rows_retracted", "count"},
      {"engine.mups_rechecked", "count"}, {"engine.read_ms", "ms"},
      {"engine.audit_read_ms", "ms"}, {"persist.fsyncs", "count"},
      {"persist.wal_bytes_per_row", "bytes/row"},
      {"persist.fsync_share", "ratio"}};
  for (const auto& [name, value] : v) {
    result->layers[name] = Metric{value, kUnits.at(name)};
  }
}

void SetLoopLayerMetrics(double lag_p99_us, double backlog_max,
                         double traced_p50, double untraced_p50,
                         RunResult* result) {
  result->layers["loadgen.lag_p99_us"] = Metric{lag_p99_us, "us"};
  result->layers["loadgen.backlog_max"] = Metric{backlog_max, "count"};
  result->layers["obs.trace_overhead"] =
      Metric{untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0, "ratio"};
}

}  // namespace perfbench
