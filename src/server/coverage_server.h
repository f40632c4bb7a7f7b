#ifndef COVERAGE_SERVER_COVERAGE_SERVER_H_
#define COVERAGE_SERVER_COVERAGE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/http.h"
#include "server/http_server.h"
#include "service/coverage_service.h"

namespace coverage {

/// Configuration of the coverage server process.
struct CoverageServerOptions {
  http::ServerOptions http;

  /// Defaults for sessions created via POST /v1/sessions; the request may
  /// override tau / max_level / window limits.
  CoverageService::SessionOptions session_defaults;

  /// Registry cap: POST /v1/sessions answers 429 beyond this.
  int max_sessions = 1024;

  /// Root of durable session state. When set, POST /v1/sessions creates
  /// crash-safe sessions persisted under <data_dir>/<session_id>/ (WAL +
  /// snapshots, see persist/durable_engine.h) and Start() recovers every
  /// session found there. Empty = in-memory sessions only.
  std::string data_dir;

  /// Idle-session reaper tick (= TTL resolution). The reaper closes
  /// sessions idle past their SessionOptions::idle_ttl_seconds; durable
  /// ones are checkpointed first and stay recoverable on disk — DELETE
  /// remains the only way to destroy durable state.
  int reaper_interval_ms = 1000;

  /// Monotonic-clock seam so tests drive the TTL reaper deterministically;
  /// nullptr = std::chrono::steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> clock;

  /// Metrics registry for route latencies, trace-stage histograms, engine
  /// gauges, and persistence counters — exported by GET /metrics and (in
  /// summary form) /v1/stats. Must outlive the server. Null = the server
  /// owns a private registry (the normal case; inject one to share a
  /// registry across servers or to inspect it from tests).
  obs::MetricsRegistry* metrics_registry = nullptr;

  /// Requests slower than this log a WARN `slow_request` event with the
  /// route, request id, and latency; <= 0 disables.
  double slow_request_seconds = 1.0;

  /// Shard mode: expose the cluster-internal routes the coordinator fans
  /// out to (POST /internal/v1/counts, /internal/v1/candidates,
  /// /internal/v1/sessions). Off by default — a standalone server must not
  /// accept coordinator-assigned session ids or answer τ=0 count scatters.
  bool enable_internal_routes = false;

  Status Validate() const;
};

/// The network front-end: binds the JSON wire protocol (server/wire.h) and
/// a route table onto one immutable CoverageService plus a registry of
/// mutable Sessions, served over the embedded HttpServer.
///
///   method  route                             maps to
///   ------  --------------------------------  --------------------------
///   GET     /healthz                          liveness probe
///   GET     /metrics                          Prometheus text exposition
///   GET     /v1/stats                         per-route counters + p50/p99
///   GET     /v1/schema                        the indexed dataset's schema
///   POST    /v1/audit                         CoverageService::Audit
///   POST    /v1/enhance                       CoverageService::Enhance
///   POST    /v1/query                         CoverageService::QueryBatch
///   GET     /v1/sessions                      list open sessions
///   POST    /v1/sessions                      OpenSession (body: schema +
///                                             options) → {"session_id"}
///   POST    /v1/sessions/{id}/append          Session::Append
///   POST    /v1/sessions/{id}/retract         Session::Retract
///   POST    /v1/sessions/{id}/audit           Session::Audit
///   POST    /v1/sessions/{id}/query           Session::QueryBatch
///   DELETE  /v1/sessions/{id}                 close the session
///
/// With options.enable_internal_routes (shard mode) three cluster-internal
/// routes join the table — see src/cluster/:
///
///   POST    /internal/v1/counts               τ=0 exact counts (wire v2)
///   POST    /internal/v1/candidates           local MUP search (wire v2)
///   POST    /internal/v1/sessions             create with explicit id
///
/// Status codes map 1:1 onto the library's Status: InvalidArgument → 400,
/// NotFound → 404, ResourceExhausted → 429, OutOfRange → 400, Internal →
/// 500; protocol-level violations (oversized body, bad framing) are
/// answered by the HttpServer itself (413/431/400). Error bodies are
/// {"error": {"code": ..., "message": ...}}.
///
/// Handle() is public so tests (and the byte-equivalence suite) can drive
/// the exact route logic in-process, with the HTTP transport exercised
/// separately over loopback.
///
/// Observability: every request gets a trace id — taken from an incoming
/// `X-Request-Id` header or generated — and echoes it back in the response's
/// `X-Request-Id`. Handlers thread an obs::Trace through service → engine →
/// persist, so each request accumulates a per-stage latency breakdown
/// (parse / plan / per-level search / engine update / WAL append / fsync /
/// checkpoint / encode). Stage latencies feed `coverage_stage_seconds`
/// histograms; appending `?timing=1` to any JSON endpoint adds a `timing`
/// member {request_id, stages, total_seconds} to the response body. Requests
/// slower than options.slow_request_seconds log a WARN `slow_request`.
class CoverageServer {
 public:
  CoverageServer(CoverageService service, CoverageServerOptions options);
  ~CoverageServer();

  CoverageServer(const CoverageServer&) = delete;
  CoverageServer& operator=(const CoverageServer&) = delete;

  Status Start();
  void Stop();
  void Wait();
  /// Stop on SIGINT/SIGTERM (see HttpServer::StopOnSignal).
  void StopOnSignal();

  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }
  /// Transport counters of the underlying HTTP server (benchmarks poll the
  /// open_connections gauge while building up load).
  http::ServerStats http_stats() const { return http_.stats(); }

  /// The full request → response mapping (transport-free).
  http::Response Handle(const http::Request& request);

  const CoverageService& service() const { return service_; }
  std::size_t num_sessions() const;

  /// The registry this server reports into (the injected one, or the
  /// server-owned default). Tests scrape it directly.
  obs::MetricsRegistry& metrics_registry() { return *metrics_; }

  /// Recovers every session directory under data_dir into the registry
  /// (no-op when data_dir is unset or the id is already live). Start()
  /// calls this; public so transport-free tests can exercise boot
  /// recovery directly. Per-session damage becomes a warning (surfaced by
  /// /v1/stats), not a boot failure.
  Status RecoverSessions();

  /// One reaper sweep at the configured clock's now(); returns the number
  /// of sessions closed. Runs periodically once Start()ed; public for
  /// deterministic fake-clock tests.
  std::size_t ReapIdleSessions();

 private:
  struct SessionEntry {
    explicit SessionEntry(CoverageService::Session session)
        : session(std::move(session)) {}
    CoverageService::Session session;
    /// Append/retract mutate the engine: one writer at a time per session
    /// (audits and queries read epoch snapshots and stay lock-free).
    std::mutex write_mu;
    /// Last request touching this session, as the configured clock's
    /// time_since_epoch count; drives the idle TTL.
    std::atomic<std::int64_t> last_used_ns{0};
  };

  http::Response Dispatch(const http::Request& request,
                          std::string* route_key, obs::Trace* trace);
  /// `binary` = the client sent `Accept: application/x-coverage-bin` and
  /// the handler should answer in wire v2 (errors stay JSON regardless).
  http::Response HandleAudit(const std::string& body, bool binary,
                             obs::Trace* trace);
  http::Response HandleEnhance(const std::string& body);
  http::Response HandleQuery(const std::string& body, bool binary,
                             obs::Trace* trace);
  http::Response HandleSchema() const;
  http::Response HandleHealth() const;
  http::Response HandleStats() const;
  http::Response HandleMetrics() const;
  http::Response HandleSessionsList() const;
  /// `allow_explicit_id` = the request may carry "session_id" (the
  /// cluster-internal create route: the coordinator names sessions so the
  /// hash ring, not the shard counter, decides placement).
  http::Response HandleSessionCreate(const std::string& body,
                                     bool allow_explicit_id);
  /// Cluster-internal: τ=0 exact counts for a pattern batch, answered in
  /// wire v2 (msg type 3) unconditionally.
  http::Response HandleInternalCounts(const std::string& body,
                                      obs::Trace* trace);
  /// Cluster-internal: the local candidate MUP search, answered in wire v2
  /// (msg type 4) unconditionally.
  http::Response HandleInternalCandidates(const std::string& body,
                                          obs::Trace* trace);
  http::Response HandleSessionDelete(const std::string& id);
  http::Response HandleSessionVerb(const std::string& id,
                                   const std::string& verb,
                                   const std::string& body, bool binary,
                                   obs::Trace* trace);

  std::shared_ptr<SessionEntry> FindSession(const std::string& id) const;

  std::chrono::steady_clock::time_point Now() const;
  void TouchSession(SessionEntry& entry) const;

  /// Point-in-time totals over the session registry, shared by the
  /// /v1/stats "engine" section and the registry's gauge callbacks.
  struct EngineGauges {
    std::uint64_t sessions = 0;
    std::uint64_t rows = 0;
    std::uint64_t epochs = 0;       ///< summed over sessions
    std::uint64_t mups = 0;
    std::uint64_t tombstones = 0;   ///< zero-count combinations
    std::uint64_t window_rows = 0;  ///< rows retained by sliding windows
  };
  EngineGauges CollectEngineGauges() const;

  /// Registers the route series, gauge callbacks, and persist counters
  /// into metrics_; called once from the constructor.
  void RegisterMetrics();

  CoverageService service_;
  CoverageServerOptions options_;
  http::HttpServer http_;

  mutable std::shared_mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  std::atomic<std::uint64_t> next_session_id_{1};

  std::thread reaper_thread_;
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;

  std::atomic<std::uint64_t> sessions_recovered_{0};
  std::atomic<std::uint64_t> sessions_reaped_{0};
  std::atomic<std::uint64_t> boot_records_replayed_{0};
  std::atomic<std::uint64_t> boot_rows_replayed_{0};
  /// Per-session recovery damage (torn tails, discarded snapshots,
  /// unrecoverable dirs); written at boot, surfaced by /v1/stats.
  std::vector<std::string> recovery_warnings_;

  /// Per-route instruments, resolved once at construction from the metrics
  /// registry (latency histogram + error counter per route). The key set
  /// is fixed, so the record path never mutates the map.
  struct RouteSeries {
    obs::Histogram* latency = nullptr;
    obs::Counter* errors = nullptr;
  };
  std::map<std::string, RouteSeries> routes_;
  RouteSeries unrouted_;  ///< 404s and other unmatched targets

  /// The reporting registry: options_.metrics_registry, or owned_metrics_
  /// when none was injected.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace coverage

#endif  // COVERAGE_SERVER_COVERAGE_SERVER_H_
