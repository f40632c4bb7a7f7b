#include "server/coverage_server.h"

#include <cmath>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "cluster/cluster_wire.h"
#include "common/stopwatch.h"
#include "obs/log.h"
#include "obs/prometheus.h"
#include "persist/durable_engine.h"
#include "persist/fault_fs.h"
#include "server/json.h"
#include "server/wire.h"
#include "server/wire_binary.h"
#include "service/pool_arena.h"

namespace coverage {

using http::Request;
using http::Response;
using json::JsonValue;

// ------------------------------------------------------------------ helpers

namespace {

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInternal: return "internal";
  }
  return "internal";
}

Response ErrorResponse(const Status& status) {
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  JsonValue::Object body;
  body["error"] = std::move(error);
  return Response::Json(StatusToHttp(status),
                        json::Serialize(JsonValue(std::move(body))));
}

Response OkJson(JsonValue value) {
  return Response::Json(200, json::Serialize(value));
}

Response OkBinary(std::string bytes) {
  Response r;
  r.status = 200;
  r.headers.push_back({"Content-Type", wire::kBinaryContentType});
  r.body = std::move(bytes);
  return r;
}

/// Wire v2 negotiation: the client opts into the binary encoding per
/// request by listing the media type in Accept. Plain substring match —
/// q-values and wildcards are out of scope for a two-format protocol
/// (`*/*`, what curl sends by default, deliberately stays JSON).
bool AcceptsBinary(const Request& request) {
  const std::string* accept = request.FindHeader("Accept");
  return accept != nullptr &&
         accept->find(wire::kBinaryContentType) != std::string::npos;
}

/// Parses a request body that must be a JSON object; an empty body stands
/// for {} so bodyless POSTs (session audit) stay ergonomic.
StatusOr<JsonValue> ParseBody(const std::string& body) {
  if (body.empty()) return JsonValue(JsonValue::Object{});
  auto parsed = json::Parse(body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return parsed;
}

const char* DurabilityName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone: return "none";
    case DurabilityMode::kAsync: return "async";
    case DurabilityMode::kFsync: return "fsync";
  }
  return "fsync";
}

StatusOr<DurabilityMode> DurabilityFromString(const std::string& name) {
  if (name == "none") return DurabilityMode::kNone;
  if (name == "async") return DurabilityMode::kAsync;
  if (name == "fsync") return DurabilityMode::kFsync;
  return Status::InvalidArgument(
      "durability must be one of \"none\", \"async\", \"fsync\" (got \"" +
      name + "\")");
}

/// Session ids are "s<n>"; recovery parses them back so fresh ids never
/// collide with recovered ones.
bool ParseSessionId(const std::string& id, std::uint64_t* n) {
  if (id.size() < 2 || id[0] != 's') return false;
  std::uint64_t value = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  *n = value;
  return true;
}

/// True when the target's query string carries `timing=1`.
bool WantsTiming(const std::string& target) {
  const std::size_t question = target.find('?');
  if (question == std::string::npos) return false;
  std::size_t pos = question + 1;
  while (pos < target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    if (target.compare(pos, amp - pos, "timing=1") == 0) return true;
    pos = amp + 1;
  }
  return false;
}

}  // namespace

Status CoverageServerOptions::Validate() const {
  COVERAGE_RETURN_IF_ERROR(http.Validate());
  COVERAGE_RETURN_IF_ERROR(session_defaults.Validate());
  if (max_sessions < 1) {
    return Status::InvalidArgument("max_sessions must be positive");
  }
  if (reaper_interval_ms < 1) {
    return Status::InvalidArgument("reaper_interval_ms must be positive");
  }
  return Status::OK();
}

// ----------------------------------------------------------- CoverageServer

CoverageServer::CoverageServer(CoverageService service,
                               CoverageServerOptions options)
    : service_(std::move(service)),
      options_(std::move(options)),
      http_(options_.http,
            [this](const Request& request) { return Handle(request); }) {
  if (options_.session_defaults.thread_budget == nullptr) {
    // One budget across every session the server opens: the registry-wide
    // (in practice process-wide) cap of ServiceOptions::max_total_threads.
    options_.session_defaults.thread_budget = std::make_shared<ThreadBudget>(
        options_.session_defaults.max_total_threads);
  }
  if (options_.metrics_registry != nullptr) {
    metrics_ = options_.metrics_registry;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // Persistence histograms flow session_defaults → DurableEngineOptions →
  // WalWriter, so every durable session (created or recovered) reports into
  // this server's registry.
  if (options_.session_defaults.fsync_histogram == nullptr) {
    options_.session_defaults.fsync_histogram = metrics_->GetHistogram(
        "coverage_persist_fsync_seconds",
        "WAL fdatasync latency, one observation per group-committed sync");
  }
  if (options_.session_defaults.checkpoint_histogram == nullptr) {
    options_.session_defaults.checkpoint_histogram = metrics_->GetHistogram(
        "coverage_persist_checkpoint_seconds",
        "Snapshot + WAL-rotation latency per checkpoint");
  }
  http_.set_loop_latency_histogram(metrics_->GetHistogram(
      "coverage_net_loop_iteration_seconds",
      "Event-loop iteration latency, wake to sleep"));
  // Fixed route-key set: Dispatch only ever looks up, so the record path
  // never mutates the map and stays lock-free.
  static const char* const kRouteKeys[] = {
      "GET /healthz",
      "GET /metrics",
      "GET /v1/stats",
      "GET /v1/schema",
      "POST /v1/audit",
      "POST /v1/enhance",
      "POST /v1/query",
      "GET /v1/sessions",
      "POST /v1/sessions",
      "DELETE /v1/sessions/{id}",
      "POST /v1/sessions/{id}/append",
      "POST /v1/sessions/{id}/retract",
      "POST /v1/sessions/{id}/audit",
      "POST /v1/sessions/{id}/query",
      "POST /internal/v1/counts",
      "POST /internal/v1/candidates",
      "POST /internal/v1/sessions",
  };
  const char* const latency_help =
      "HTTP request latency by route (transport excluded: measured around "
      "the route handler)";
  const char* const errors_help = "HTTP responses with status >= 400";
  for (const char* key : kRouteKeys) {
    routes_[key] = RouteSeries{
        metrics_->GetHistogram("coverage_http_request_seconds", latency_help,
                               {{"route", key}}),
        metrics_->GetCounter("coverage_http_request_errors_total",
                             errors_help, {{"route", key}})};
  }
  unrouted_ = RouteSeries{
      metrics_->GetHistogram("coverage_http_request_seconds", latency_help,
                             {{"route", "unrouted"}}),
      metrics_->GetCounter("coverage_http_request_errors_total", errors_help,
                           {{"route", "unrouted"}})};
  RegisterMetrics();
}

CoverageServer::EngineGauges CoverageServer::CollectEngineGauges() const {
  EngineGauges g;
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  for (const auto& [id, entry] : sessions_) {
    ++g.sessions;
    const auto snap = entry->session.engine().snapshot();
    g.rows += snap->num_rows();
    g.epochs += snap->epoch();
    g.mups += snap->mups().size();
    const AggregatedData& data = snap->data();
    for (std::size_t k = 0; k < data.num_combinations(); ++k) {
      if (data.count(k) == 0) ++g.tombstones;
    }
    g.window_rows += entry->session.engine().window_rows();
  }
  return g;
}

void CoverageServer::RegisterMetrics() {
  using obs::MetricType;
  // Callbacks run under the registry mutex at collection time and take
  // sessions_mu_ inside; nothing takes the registry mutex while holding
  // sessions_mu_, so the lock order stays registry → sessions.
  metrics_->RegisterCallback(
      "coverage_http_connections_accepted_total",
      "TCP connections accepted by the embedded server", MetricType::kCounter,
      {}, [this] {
        return static_cast<double>(http_.stats().connections_accepted);
      });
  metrics_->RegisterCallback(
      "coverage_http_requests_handled_total", "HTTP requests handled",
      MetricType::kCounter, {},
      [this] { return static_cast<double>(http_.stats().requests_handled); });
  metrics_->RegisterCallback(
      "coverage_http_protocol_errors_total",
      "Requests rejected at the HTTP layer (framing, size caps)",
      MetricType::kCounter, {},
      [this] { return static_cast<double>(http_.stats().protocol_errors); });
  metrics_->RegisterCallback(
      "coverage_http_connections_shed_total",
      "Connections answered 503 by overload shedding", MetricType::kCounter,
      {},
      [this] { return static_cast<double>(http_.stats().connections_shed); });
  metrics_->RegisterCallback(
      "coverage_http_accept_retries_total",
      "accept() failures survived by backoff (EMFILE and friends)",
      MetricType::kCounter, {},
      [this] { return static_cast<double>(http_.stats().accept_retries); });
  metrics_->RegisterCallback(
      "coverage_net_open_connections",
      "Established sockets owned by the event loop",
      MetricType::kGauge, {},
      [this] { return static_cast<double>(http_.stats().open_connections); });
  metrics_->RegisterCallback(
      "coverage_net_write_buffer_bytes",
      "Response bytes buffered awaiting socket writability",
      MetricType::kGauge, {}, [this] {
        return static_cast<double>(http_.stats().write_buffer_bytes);
      });

  metrics_->RegisterCallback(
      "coverage_sessions_open", "Live sessions in the registry",
      MetricType::kGauge, {},
      [this] { return static_cast<double>(num_sessions()); });
  metrics_->RegisterCallback(
      "coverage_sessions_recovered_total",
      "Durable sessions recovered from disk at boot", MetricType::kCounter,
      {}, [this] {
        return static_cast<double>(
            sessions_recovered_.load(std::memory_order_relaxed));
      });
  metrics_->RegisterCallback(
      "coverage_sessions_reaped_total", "Sessions closed by the idle reaper",
      MetricType::kCounter, {}, [this] {
        return static_cast<double>(
            sessions_reaped_.load(std::memory_order_relaxed));
      });

  metrics_->RegisterCallback(
      "coverage_engine_rows", "Rows indexed across live sessions",
      MetricType::kGauge, {},
      [this] { return static_cast<double>(CollectEngineGauges().rows); });
  metrics_->RegisterCallback(
      "coverage_engine_epochs", "Sum of session epochs (mutations applied)",
      MetricType::kGauge, {},
      [this] { return static_cast<double>(CollectEngineGauges().epochs); });
  metrics_->RegisterCallback(
      "coverage_engine_mups",
      "Maximal uncovered patterns maintained across live sessions",
      MetricType::kGauge, {},
      [this] { return static_cast<double>(CollectEngineGauges().mups); });
  metrics_->RegisterCallback(
      "coverage_engine_tombstones",
      "Zero-count value combinations retained by retraction",
      MetricType::kGauge, {}, [this] {
        return static_cast<double>(CollectEngineGauges().tombstones);
      });
  metrics_->RegisterCallback(
      "coverage_engine_window_rows",
      "Rows currently inside sliding windows across live sessions",
      MetricType::kGauge, {}, [this] {
        return static_cast<double>(CollectEngineGauges().window_rows);
      });

  const std::shared_ptr<ThreadBudget> budget =
      options_.session_defaults.thread_budget;
  metrics_->RegisterCallback(
      "coverage_threads_reserved",
      "Worker threads currently leased from the shared budget",
      MetricType::kGauge, {},
      [budget] { return static_cast<double>(budget->reserved()); });
  metrics_->RegisterCallback(
      "coverage_threads_budget",
      "Budget cap on spawned worker threads (0 = unlimited)",
      MetricType::kGauge, {}, [budget] {
        return static_cast<double>(budget->max_spawned_threads());
      });

  metrics_->RegisterCallback(
      "coverage_persist_records_logged_total",
      "WAL records appended across live durable sessions",
      MetricType::kCounter, {}, [this] {
        std::uint64_t total = 0;
        std::shared_lock<std::shared_mutex> lock(sessions_mu_);
        for (const auto& [id, entry] : sessions_) {
          const persist::DurableEngine* durable = entry->session.durable();
          if (durable != nullptr) {
            total += durable->persist_stats().records_logged;
          }
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterCallback(
      "coverage_persist_wal_bytes",
      "Live WAL segment bytes across durable sessions", MetricType::kGauge,
      {}, [this] {
        std::uint64_t total = 0;
        std::shared_lock<std::shared_mutex> lock(sessions_mu_);
        for (const auto& [id, entry] : sessions_) {
          const persist::DurableEngine* durable = entry->session.durable();
          if (durable != nullptr) total += durable->persist_stats().wal_bytes;
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterCallback(
      "coverage_persist_checkpoints_total",
      "Checkpoints written across live durable sessions",
      MetricType::kCounter, {}, [this] {
        std::uint64_t total = 0;
        std::shared_lock<std::shared_mutex> lock(sessions_mu_);
        for (const auto& [id, entry] : sessions_) {
          const persist::DurableEngine* durable = entry->session.durable();
          if (durable != nullptr) {
            total += durable->persist_stats().checkpoints_written;
          }
        }
        return static_cast<double>(total);
      });
}

CoverageServer::~CoverageServer() { Stop(); }

Status CoverageServer::Start() {
  COVERAGE_RETURN_IF_ERROR(options_.Validate());
  // Recover before accepting traffic: clients that knew a session id from
  // before the crash must find it live on their first retry.
  COVERAGE_RETURN_IF_ERROR(RecoverSessions());
  COVERAGE_RETURN_IF_ERROR(http_.Start());
  // The reaper gets its own thread, never the event loop's: reaping a
  // durable session checkpoints it (snapshot, fsync, WAL rotation), which
  // would stall every connection if it ran on the I/O thread.
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    reaper_stop_ = false;
  }
  reaper_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(reaper_mu_);
    while (!reaper_stop_) {
      reaper_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.reaper_interval_ms));
      if (reaper_stop_) break;
      lock.unlock();
      ReapIdleSessions();
      lock.lock();
    }
  });
  return Status::OK();
}

void CoverageServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  http_.Stop();
}

void CoverageServer::Wait() { http_.Wait(); }
void CoverageServer::StopOnSignal() { http_.StopOnSignal(); }

std::size_t CoverageServer::num_sessions() const {
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<CoverageServer::SessionEntry> CoverageServer::FindSession(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::chrono::steady_clock::time_point CoverageServer::Now() const {
  return options_.clock ? options_.clock() : std::chrono::steady_clock::now();
}

void CoverageServer::TouchSession(SessionEntry& entry) const {
  entry.last_used_ns.store(Now().time_since_epoch().count(),
                           std::memory_order_relaxed);
}

Status CoverageServer::RecoverSessions() {
  if (options_.data_dir.empty()) return Status::OK();
  persist::FileSystem* fs = persist::FileSystem::Default();
  COVERAGE_RETURN_IF_ERROR(fs->CreateDirs(options_.data_dir));
  auto names = fs->ListDir(options_.data_dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    {
      std::shared_lock<std::shared_mutex> lock(sessions_mu_);
      if (sessions_.count(name) != 0) continue;
    }
    const std::string dir = options_.data_dir + "/" + name;
    auto session =
        CoverageService::ReopenDurableSession(dir, options_.session_defaults);
    if (!session.ok()) {
      // An empty subdirectory (or stray file) is not a session; anything
      // else is real damage worth surfacing — but one bad session must not
      // keep the rest of the fleet down.
      if (session.status().code() != StatusCode::kNotFound) {
        recovery_warnings_.push_back(name + ": " +
                                     session.status().message());
      }
      continue;
    }
    const persist::DurableEngine* durable = session->durable();
    boot_records_replayed_.fetch_add(
        durable->recovery_stats().records_replayed,
        std::memory_order_relaxed);
    boot_rows_replayed_.fetch_add(durable->recovery_stats().rows_replayed,
                                  std::memory_order_relaxed);
    for (const std::string& warning : durable->recovery_stats().warnings) {
      recovery_warnings_.push_back(name + ": " + warning);
    }
    auto entry = std::make_shared<SessionEntry>(std::move(*session));
    TouchSession(*entry);
    std::uint64_t numeric = 0;
    {
      std::unique_lock<std::shared_mutex> lock(sessions_mu_);
      sessions_.emplace(name, std::move(entry));
    }
    sessions_recovered_.fetch_add(1, std::memory_order_relaxed);
    // Fresh ids must never collide with recovered ones.
    if (ParseSessionId(name, &numeric)) {
      std::uint64_t next = next_session_id_.load(std::memory_order_relaxed);
      while (next <= numeric && !next_session_id_.compare_exchange_weak(
                                    next, numeric + 1,
                                    std::memory_order_relaxed)) {
      }
    }
  }
  return Status::OK();
}

std::size_t CoverageServer::ReapIdleSessions() {
  const auto now = Now();
  std::vector<std::shared_ptr<SessionEntry>> expired;
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const std::uint64_t ttl =
          it->second->session.options().idle_ttl_seconds;
      const auto last = std::chrono::steady_clock::time_point(
          std::chrono::steady_clock::duration(
              it->second->last_used_ns.load(std::memory_order_relaxed)));
      if (ttl > 0 && now - last >= std::chrono::seconds(ttl)) {
        expired.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& entry : expired) {
    // Snapshot-then-close: a durable session's next reopen (or the next
    // boot) recovers instantly from the fresh snapshot. The directory
    // stays — reaping reclaims memory, DELETE destroys state.
    if (entry->session.durable() != nullptr) {
      (void)entry->session.Checkpoint();
    }
    sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
  }
  return expired.size();
}

Response CoverageServer::Handle(const Request& request) {
  Stopwatch timer;

  // Request id: honor the client's X-Request-Id (so one id follows a call
  // across services), otherwise mint one.
  const std::string* incoming = request.FindHeader("X-Request-Id");
  obs::Trace trace(incoming != nullptr && !incoming->empty()
                       ? *incoming
                       : obs::GenerateTraceId());

  std::string route_key;
  Response response = Dispatch(request, &route_key, &trace);
  const double seconds = timer.ElapsedSeconds();
  const bool error = response.status >= 400;

  auto it = routes_.find(route_key);
  const RouteSeries& series = it != routes_.end() ? it->second : unrouted_;
  series.latency->Observe(seconds);
  if (error) series.errors->Increment();
  for (const auto& [stage, stage_seconds] : trace.stages()) {
    metrics_
        ->GetHistogram("coverage_stage_seconds",
                       "Per-stage request latency from the trace spans",
                       {{"stage", stage}})
        ->Observe(stage_seconds);
  }

  // Opt-in timing section: ?timing=1 folds the trace into the JSON body.
  if (WantsTiming(request.target) && response.status < 400 &&
      !response.body.empty()) {
    auto parsed = json::Parse(response.body);
    if (parsed.ok() && parsed->is_object()) {
      JsonValue::Object stages;
      for (const auto& [stage, stage_seconds] : trace.stages()) {
        stages[stage] = stage_seconds;
      }
      JsonValue::Object timing;
      timing["request_id"] = trace.id();
      timing["stages"] = std::move(stages);
      timing["total_seconds"] = seconds;
      parsed->AsObject()["timing"] = std::move(timing);
      response.body = json::Serialize(*parsed);
    }
  }
  response.headers.push_back({"X-Request-Id", trace.id()});

  if (options_.slow_request_seconds > 0 &&
      seconds >= options_.slow_request_seconds) {
    obs::LogEvent event = obs::LogWarn("slow_request");
    event.Str("route", route_key.empty() ? "unrouted" : route_key)
        .Str("request_id", trace.id())
        .Double("seconds", seconds)
        .Int("status", response.status);
    for (const auto& [stage, stage_seconds] : trace.stages()) {
      event.Double(stage, stage_seconds);
    }
  }
  return response;
}

Response CoverageServer::Dispatch(const Request& request,
                                  std::string* route_key, obs::Trace* trace) {
  // Strip any query string; the wire protocol carries everything in JSON
  // bodies.
  std::string path = request.target;
  const std::size_t question = path.find('?');
  if (question != std::string::npos) path.resize(question);

  const auto route = [&](const char* key) {
    *route_key = key;
    return true;
  };

  if (request.method == "GET") {
    if (path == "/healthz" && route("GET /healthz")) return HandleHealth();
    if (path == "/metrics" && route("GET /metrics")) return HandleMetrics();
    if (path == "/v1/stats" && route("GET /v1/stats")) return HandleStats();
    if (path == "/v1/schema" && route("GET /v1/schema")) {
      return HandleSchema();
    }
    if (path == "/v1/sessions" && route("GET /v1/sessions")) {
      return HandleSessionsList();
    }
  }
  if (request.method == "POST") {
    if (path == "/v1/audit" && route("POST /v1/audit")) {
      return HandleAudit(request.body, AcceptsBinary(request), trace);
    }
    if (path == "/v1/enhance" && route("POST /v1/enhance")) {
      return HandleEnhance(request.body);
    }
    if (path == "/v1/query" && route("POST /v1/query")) {
      return HandleQuery(request.body, AcceptsBinary(request), trace);
    }
    if (path == "/v1/sessions" && route("POST /v1/sessions")) {
      return HandleSessionCreate(request.body, /*allow_explicit_id=*/false);
    }
    if (options_.enable_internal_routes) {
      if (path == "/internal/v1/counts" && route("POST /internal/v1/counts")) {
        return HandleInternalCounts(request.body, trace);
      }
      if (path == "/internal/v1/candidates" &&
          route("POST /internal/v1/candidates")) {
        return HandleInternalCandidates(request.body, trace);
      }
      if (path == "/internal/v1/sessions" &&
          route("POST /internal/v1/sessions")) {
        return HandleSessionCreate(request.body, /*allow_explicit_id=*/true);
      }
    }
  }

  // /v1/sessions/{id} and /v1/sessions/{id}/{verb}
  const std::string prefix = "/v1/sessions/";
  if (path.compare(0, prefix.size(), prefix) == 0) {
    const std::string rest = path.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    if (!id.empty()) {
      if (slash == std::string::npos) {
        if (request.method == "DELETE" && route("DELETE /v1/sessions/{id}")) {
          return HandleSessionDelete(id);
        }
      } else {
        const std::string verb = rest.substr(slash + 1);
        if (request.method == "POST" &&
            (verb == "append" || verb == "retract" || verb == "audit" ||
             verb == "query")) {
          *route_key = "POST /v1/sessions/{id}/" + verb;
          return HandleSessionVerb(id, verb, request.body,
                                   AcceptsBinary(request), trace);
        }
      }
    }
  }

  // Distinguish a known path with the wrong method from an unknown path.
  static const char* const kPaths[] = {"/healthz", "/metrics", "/v1/stats",
                                       "/v1/schema", "/v1/audit",
                                       "/v1/enhance", "/v1/query",
                                       "/v1/sessions"};
  for (const char* known : kPaths) {
    if (path == known) {
      Response r = ErrorResponse(Status::InvalidArgument(
          "method " + request.method + " is not supported on " + path));
      r.status = 405;
      return r;
    }
  }
  return ErrorResponse(Status::NotFound("no route for " + request.method +
                                        " " + path));
}

Response CoverageServer::HandleHealth() const {
  JsonValue::Object o;
  o["status"] = "serving";
  o["num_rows"] = service_.num_rows();
  return OkJson(JsonValue(std::move(o)));
}

Response CoverageServer::HandleSchema() const {
  return OkJson(wire::ToJson(service_.schema()));
}

Response CoverageServer::HandleMetrics() const {
  Response response =
      Response::Text(200, obs::RenderPrometheus(*metrics_));
  for (auto& [name, value] : response.headers) {
    if (name == "Content-Type") value = obs::kPrometheusContentType;
  }
  return response;
}

Response CoverageServer::HandleStats() const {
  JsonValue::Object routes;
  for (const auto& [key, series] : routes_) {
    if (series.latency->count() == 0) continue;
    JsonValue::Object r;
    r["count"] = series.latency->count();
    r["errors"] = series.errors->value();
    r["p50_seconds"] = series.latency->QuantileSeconds(0.50);
    r["p99_seconds"] = series.latency->QuantileSeconds(0.99);
    r["total_seconds"] = series.latency->sum_seconds();
    routes[key] = std::move(r);
  }
  const http::ServerStats hs = http_.stats();
  JsonValue::Object server;
  server["connections_accepted"] = hs.connections_accepted;
  server["requests_handled"] = hs.requests_handled;
  server["protocol_errors"] = hs.protocol_errors;
  server["connections_shed"] = hs.connections_shed;
  server["accept_retries"] = hs.accept_retries;
  server["io_model"] = "epoll";
  server["open_connections"] = hs.open_connections;
  server["write_buffer_bytes"] = hs.write_buffer_bytes;

  // Persistence counters, aggregated over the live durable sessions plus
  // what boot recovery replayed (reaped/deleted sessions keep their boot
  // contribution).
  JsonValue::Object persist;
  {
    std::uint64_t durable_sessions = 0;
    std::uint64_t records_logged = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t checkpoints_written = 0;
    std::uint64_t fsync_calls = 0;
    double fsync_seconds = 0.0;
    {
      std::shared_lock<std::shared_mutex> lock(sessions_mu_);
      for (const auto& [id, entry] : sessions_) {
        const persist::DurableEngine* durable = entry->session.durable();
        if (durable == nullptr) continue;
        ++durable_sessions;
        const persist::PersistStats ps = durable->persist_stats();
        records_logged += ps.records_logged;
        wal_bytes += ps.wal_bytes;
        checkpoints_written += ps.checkpoints_written;
        fsync_calls += ps.sync_calls;
        fsync_seconds += ps.sync_seconds;
      }
    }
    persist["durable_sessions"] = durable_sessions;
    persist["sessions_recovered"] =
        sessions_recovered_.load(std::memory_order_relaxed);
    persist["sessions_reaped"] =
        sessions_reaped_.load(std::memory_order_relaxed);
    persist["records_logged"] = records_logged;
    persist["records_replayed"] =
        boot_records_replayed_.load(std::memory_order_relaxed);
    persist["rows_replayed"] =
        boot_rows_replayed_.load(std::memory_order_relaxed);
    persist["wal_bytes"] = wal_bytes;
    persist["checkpoints_written"] = checkpoints_written;
    persist["fsync_calls"] = fsync_calls;
    persist["fsync_seconds"] = fsync_seconds;
    persist["fsync_avg_ms"] =
        fsync_calls == 0 ? 0.0
                         : fsync_seconds * 1e3 /
                               static_cast<double>(fsync_calls);
    JsonValue::Array warnings;
    for (const std::string& w : recovery_warnings_) warnings.push_back(w);
    persist["recovery_warnings"] = std::move(warnings);
  }

  // Engine/session gauges: one sweep shared with the /metrics callbacks.
  const EngineGauges gauges = CollectEngineGauges();
  JsonValue::Object engine;
  engine["sessions"] = gauges.sessions;
  engine["rows"] = gauges.rows;
  engine["epochs"] = gauges.epochs;
  engine["mups"] = gauges.mups;
  engine["tombstones"] = gauges.tombstones;
  engine["window_rows"] = gauges.window_rows;
  const std::shared_ptr<ThreadBudget>& budget =
      options_.session_defaults.thread_budget;
  engine["threads_reserved"] = static_cast<std::uint64_t>(budget->reserved());
  engine["threads_budget"] =
      static_cast<std::int64_t>(budget->max_spawned_threads());

  JsonValue::Object o;
  o["engine"] = std::move(engine);
  o["routes"] = std::move(routes);
  o["server"] = std::move(server);
  o["persist"] = std::move(persist);
  o["open_sessions"] = num_sessions();
  o["unrouted_requests"] = unrouted_.latency->count();
  return OkJson(JsonValue(std::move(o)));
}

Response CoverageServer::HandleAudit(const std::string& body, bool binary,
                                     obs::Trace* trace) {
  StatusOr<AuditRequest> request = [&]() -> StatusOr<AuditRequest> {
    obs::ScopedStage stage(trace, "parse");
    auto parsed = ParseBody(body);
    if (!parsed.ok()) return parsed.status();
    return wire::AuditRequestFromJson(*parsed);
  }();
  if (!request.ok()) return ErrorResponse(request.status());
  // The response is re-encoded from packed form; never materialize.
  request->materialize_patterns = false;
  auto result = service_.Audit(*request, trace);
  if (!result.ok()) return ErrorResponse(result.status());
  obs::ScopedStage stage(trace, "encode");
  if (binary) return OkBinary(wire::EncodeAuditResultBinary(*result));
  return OkJson(wire::ToJson(*result, service_.schema()));
}

Response CoverageServer::HandleEnhance(const std::string& body) {
  auto parsed = ParseBody(body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  auto request = wire::EnhanceRequestFromJson(*parsed, service_.schema());
  if (!request.ok()) return ErrorResponse(request.status());
  auto plan = service_.Enhance(*request);
  if (!plan.ok()) return ErrorResponse(plan.status());
  return OkJson(wire::ToJson(*plan, service_.schema()));
}

Response CoverageServer::HandleQuery(const std::string& body, bool binary,
                                     obs::Trace* trace) {
  StatusOr<QueryBatchRequest> request = [&]() -> StatusOr<QueryBatchRequest> {
    obs::ScopedStage stage(trace, "parse");
    auto parsed = ParseBody(body);
    if (!parsed.ok()) return parsed.status();
    return wire::QueryBatchRequestFromJson(*parsed, service_.schema());
  }();
  if (!request.ok()) return ErrorResponse(request.status());
  auto result = service_.QueryBatch(*request, trace);
  if (!result.ok()) return ErrorResponse(result.status());
  obs::ScopedStage stage(trace, "encode");
  if (binary) return OkBinary(wire::EncodeQueryBatchResultBinary(*result));
  return OkJson(wire::ToJson(*result));
}

Response CoverageServer::HandleInternalCounts(const std::string& body,
                                              obs::Trace* trace) {
  StatusOr<QueryBatchRequest> request = [&]() -> StatusOr<QueryBatchRequest> {
    obs::ScopedStage stage(trace, "parse");
    auto parsed = ParseBody(body);
    if (!parsed.ok()) return parsed.status();
    return wire::QueryBatchRequestFromJson(*parsed, service_.schema());
  }();
  if (!request.ok()) return ErrorResponse(request.status());
  // The merge protocol is exact counts only — thresholds are not additive
  // across shards, so any client-sent tau is overridden.
  for (QueryRequest& query : request->queries) query.tau = 0;
  auto result = service_.QueryBatch(*request, trace);
  if (!result.ok()) return ErrorResponse(result.status());
  obs::ScopedStage stage(trace, "encode");
  return OkBinary(
      cluster::EncodeShardCountsBinary(service_.num_rows(), *result));
}

Response CoverageServer::HandleInternalCandidates(const std::string& body,
                                                  obs::Trace* trace) {
  StatusOr<AuditRequest> request = [&]() -> StatusOr<AuditRequest> {
    obs::ScopedStage stage(trace, "parse");
    auto parsed = ParseBody(body);
    if (!parsed.ok()) return parsed.status();
    return wire::AuditRequestFromJson(*parsed);
  }();
  if (!request.ok()) return ErrorResponse(request.status());
  // The nested audit frame re-encodes from packed form; never materialize.
  request->materialize_patterns = false;
  auto result = service_.Audit(*request, trace);
  if (!result.ok()) return ErrorResponse(result.status());
  obs::ScopedStage stage(trace, "encode");
  return OkBinary(
      cluster::EncodeShardCandidatesBinary(service_.num_rows(), *result));
}

Response CoverageServer::HandleSessionsList() const {
  JsonValue::Array list;
  {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    for (const auto& [id, entry] : sessions_) {
      JsonValue::Object s;
      s["session_id"] = id;
      s["epoch"] = entry->session.epoch();
      s["num_rows"] = entry->session.num_rows();
      s["num_mups"] = entry->session.Audit().mups.size();
      s["durable"] = entry->session.durable() != nullptr;
      s["idle_ttl_seconds"] = entry->session.options().idle_ttl_seconds;
      list.push_back(std::move(s));
    }
  }
  JsonValue::Object o;
  o["sessions"] = std::move(list);
  return OkJson(JsonValue(std::move(o)));
}

Response CoverageServer::HandleSessionCreate(const std::string& body,
                                             bool allow_explicit_id) {
  auto parsed = ParseBody(body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  const JsonValue* schema_json = parsed->Find("schema");
  Schema schema;
  if (schema_json != nullptr) {
    auto decoded = wire::SchemaFromJson(*schema_json);
    if (!decoded.ok()) return ErrorResponse(decoded.status());
    schema = std::move(*decoded);
  } else {
    // Default: a session over the served dataset's schema (the common
    // "stream more of the same data" case).
    schema = service_.schema();
  }

  const bool durable = !options_.data_dir.empty();
  CoverageService::SessionOptions options = options_.session_defaults;
  std::string explicit_id;
  const JsonValue& v = *parsed;
  for (const auto& [key, value] : v.AsObject()) {
    if (key == "schema") continue;
    if (key == "session_id" && allow_explicit_id) {
      auto name = v.GetString("session_id");
      if (!name.ok()) return ErrorResponse(name.status());
      if (name->empty() || name->find('/') != std::string::npos) {
        return ErrorResponse(Status::InvalidArgument(
            "session_id must be a non-empty name without '/'"));
      }
      explicit_id = *name;
    } else if (key == "tau") {
      auto tau = v.GetUint("tau");
      if (!tau.ok()) return ErrorResponse(tau.status());
      options.tau = *tau;
    } else if (key == "max_level") {
      auto level = v.GetInt("max_level");
      if (!level.ok()) return ErrorResponse(level.status());
      options.max_level = static_cast<int>(*level);
    } else if (key == "window_max_rows") {
      auto rows = v.GetUint("window_max_rows");
      if (!rows.ok()) return ErrorResponse(rows.status());
      options.window_max_rows = static_cast<std::size_t>(*rows);
    } else if (key == "window_max_epochs") {
      auto epochs = v.GetUint("window_max_epochs");
      if (!epochs.ok()) return ErrorResponse(epochs.status());
      options.window_max_epochs = static_cast<std::size_t>(*epochs);
    } else if (key == "durability") {
      if (!durable) {
        return ErrorResponse(Status::InvalidArgument(
            "this server runs without --data-dir; durable sessions are "
            "unavailable"));
      }
      auto name = v.GetString("durability");
      if (!name.ok()) return ErrorResponse(name.status());
      auto mode = DurabilityFromString(*name);
      if (!mode.ok()) return ErrorResponse(mode.status());
      options.durability = *mode;
    } else if (key == "idle_ttl_seconds") {
      auto ttl = v.GetUint("idle_ttl_seconds");
      if (!ttl.ok()) return ErrorResponse(ttl.status());
      options.idle_ttl_seconds = *ttl;
    } else {
      return ErrorResponse(Status::InvalidArgument(
          "unknown request member '" + key + "'"));
    }
  }

  // Durable sessions need their id up front — it names the directory.
  const std::string id =
      !explicit_id.empty()
          ? explicit_id
          : "s" + std::to_string(next_session_id_.fetch_add(
                      1, std::memory_order_relaxed));
  if (!explicit_id.empty()) {
    // Coordinator-assigned id: reject duplicates before any state is
    // created (the coordinator burns the id and retries the next one).
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    if (sessions_.contains(id)) {
      return ErrorResponse(Status::InvalidArgument(
          "session '" + id + "' already exists"));
    }
  }
  const std::string dir = options_.data_dir + "/" + id;
  auto session = durable
                     ? CoverageService::OpenDurableSession(dir, schema,
                                                           options)
                     : CoverageService::OpenSession(schema, options);
  if (!session.ok()) return ErrorResponse(session.status());

  auto entry = std::make_shared<SessionEntry>(std::move(*session));
  TouchSession(*entry);
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    if (sessions_.size() >= static_cast<std::size_t>(options_.max_sessions)) {
      lock.unlock();
      if (durable) {
        // Undo the partially created on-disk state of the rejected session.
        entry.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
      return ErrorResponse(Status::ResourceExhausted(
          "session registry is full (" +
          std::to_string(options_.max_sessions) + " open sessions)"));
    }
    if (!sessions_.emplace(id, std::move(entry)).second) {
      // Lost a race on an explicit id between the pre-check and here.
      lock.unlock();
      if (durable) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
      return ErrorResponse(Status::InvalidArgument(
          "session '" + id + "' already exists"));
    }
  }
  // Keep the counter ahead of any numeric explicit id so later
  // counter-allocated ids never collide with coordinator-assigned ones.
  std::uint64_t numeric = 0;
  if (!explicit_id.empty() && ParseSessionId(id, &numeric)) {
    std::uint64_t next = next_session_id_.load(std::memory_order_relaxed);
    while (next <= numeric && !next_session_id_.compare_exchange_weak(
                                  next, numeric + 1,
                                  std::memory_order_relaxed)) {
    }
  }
  JsonValue::Object o;
  o["session_id"] = id;
  o["tau"] = options.tau;
  o["num_attributes"] = schema.num_attributes();
  o["durable"] = durable;
  if (durable) o["durability"] = DurabilityName(options.durability);
  o["idle_ttl_seconds"] = options.idle_ttl_seconds;
  Response r = OkJson(JsonValue(std::move(o)));
  r.status = 201;
  return r;
}

Response CoverageServer::HandleSessionDelete(const std::string& id) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return ErrorResponse(Status::NotFound("no session '" + id + "'"));
    }
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  // In-flight handlers on this session finish on their shared_ptr; the
  // engine is destroyed when the last one drops.
  const bool durable = entry->session.durable() != nullptr;
  if (durable) {
    // DELETE is the explicit destroy: unlike the idle reaper, it removes
    // the on-disk state too — the session must not resurrect at next boot.
    const std::string dir = entry->session.durable()->dir();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (ec) {
      return ErrorResponse(Status::Internal(
          "session closed but removing '" + dir + "' failed: " +
          ec.message()));
    }
  }
  JsonValue::Object o;
  o["closed"] = id;
  o["data_removed"] = durable;
  return OkJson(JsonValue(std::move(o)));
}

Response CoverageServer::HandleSessionVerb(const std::string& id,
                                           const std::string& verb,
                                           const std::string& body,
                                           bool binary, obs::Trace* trace) {
  std::shared_ptr<SessionEntry> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("no session '" + id + "'"));
  }
  TouchSession(*entry);
  auto parsed = [&] {
    obs::ScopedStage stage(trace, "parse");
    return ParseBody(body);
  }();
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  if (verb == "append" || verb == "retract") {
    auto rows = [&] {
      obs::ScopedStage stage(trace, "parse");
      return wire::RowsFromJson(*parsed, entry->session.schema());
    }();
    if (!rows.ok()) return ErrorResponse(rows.status());
    std::lock_guard<std::mutex> write_lock(entry->write_mu);
    auto stats = verb == "append" ? entry->session.Append(*rows, trace)
                                  : entry->session.Retract(*rows, trace);
    if (!stats.ok()) return ErrorResponse(stats.status());
    obs::ScopedStage stage(trace, "encode");
    JsonValue update = wire::ToJson(*stats);
    update.AsObject()["epoch"] = entry->session.epoch();
    update.AsObject()["num_mups"] = entry->session.Audit().mups.size();
    return OkJson(update);
  }
  if (verb == "audit") {
    if (!parsed->AsObject().empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "session audit takes no request members (the MUP set is "
          "maintained incrementally; send an empty body)"));
    }
    const AuditResult result = entry->session.Audit(trace);
    obs::ScopedStage stage(trace, "encode");
    if (binary) return OkBinary(wire::EncodeAuditResultBinary(result));
    return OkJson(wire::ToJson(result, entry->session.schema()));
  }
  // verb == "query"
  auto request = [&] {
    obs::ScopedStage stage(trace, "parse");
    return wire::QueryBatchRequestFromJson(*parsed, entry->session.schema());
  }();
  if (!request.ok()) return ErrorResponse(request.status());
  auto result = entry->session.QueryBatch(*request, trace);
  if (!result.ok()) return ErrorResponse(result.status());
  obs::ScopedStage stage(trace, "encode");
  if (binary) return OkBinary(wire::EncodeQueryBatchResultBinary(*result));
  return OkJson(wire::ToJson(*result));
}

}  // namespace coverage
