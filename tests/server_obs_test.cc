// Server-level observability integration: GET /metrics exposition,
// X-Request-Id propagation, the ?timing=1 per-stage breakdown, the engine
// gauges in /v1/stats, slow-request logging, and the persistence
// histograms fed by durable sessions. Everything drives Handle() directly
// (transport-free); the HTTP transport itself is covered by
// http_server_test.cc and coverage_server_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/executor.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/coverage_server.h"
#include "server/json.h"
#include "service/coverage_service.h"

namespace coverage {
namespace {

using http::Request;
using http::Response;
using json::JsonValue;

CoverageService MakeCompasService() {
  ServiceOptions options;
  options.num_threads = 1;
  auto service =
      CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 42}, options);
  EXPECT_TRUE(service.ok());
  return std::move(*service);
}

Request MakeRequest(const std::string& method, const std::string& target,
                    const std::string& body = "") {
  Request request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

constexpr char kTinySchema[] = R"({
  "schema": {"attributes": [
    {"name": "gender", "values": ["male", "female"]},
    {"name": "age", "values": ["young", "old"]}
  ]},
  "tau": 2
})";

class ServerObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoverageServerOptions options;
    options.session_defaults.tau = 5;
    server_ = std::make_unique<CoverageServer>(MakeCompasService(), options);
  }

  /// Creates a session via the route logic and returns its id.
  std::string OpenTinySession() {
    const Response created =
        server_->Handle(MakeRequest("POST", "/v1/sessions", kTinySchema));
    EXPECT_EQ(created.status, 201) << created.body;
    auto body = json::Parse(created.body);
    EXPECT_TRUE(body.ok());
    return *body->GetString("session_id");
  }

  std::unique_ptr<CoverageServer> server_;
};

// ----------------------------------------------------------- /metrics --

TEST_F(ServerObsTest, MetricsEndpointSpeaksPrometheus) {
  // Generate some traffic first so the route histograms hold counts.
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/healthz")).status, 200);
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/healthz")).status, 200);
  EXPECT_EQ(
      server_->Handle(MakeRequest("POST", "/v1/audit", R"({"tau": 30})"))
          .status,
      200);

  const Response response = server_->Handle(MakeRequest("GET", "/metrics"));
  ASSERT_EQ(response.status, 200);
  const std::string* content_type = response.FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, obs::kPrometheusContentType);

  const std::string& text = response.body;
  EXPECT_NE(text.find("# TYPE coverage_http_request_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("coverage_http_request_seconds_count{route=\"GET "
                      "/healthz\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("coverage_http_request_seconds_count{route=\"POST "
                      "/v1/audit\"} 1\n"),
            std::string::npos);
  // The audit threaded a trace through plan + search: stage histograms.
  EXPECT_NE(text.find("# TYPE coverage_stage_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("coverage_stage_seconds_count{stage=\"search\"} 1\n"),
            std::string::npos);
  // Callback gauges evaluate live state.
  EXPECT_NE(text.find("coverage_sessions_open 0\n"), std::string::npos);
  EXPECT_NE(text.find("coverage_executor_threads " +
                      std::to_string(Executor::Shared().num_helpers()) +
                      "\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE coverage_executor_busy gauge\n"),
            std::string::npos);
}

TEST_F(ServerObsTest, EngineGaugesTrackSessionState) {
  const std::string id = OpenTinySession();
  const Response append = server_->Handle(MakeRequest(
      "POST", "/v1/sessions/" + id + "/append",
      R"({"rows": [["male", "young"], ["female", "old"], [0, 1]]})"));
  ASSERT_EQ(append.status, 200) << append.body;

  const Response response = server_->Handle(MakeRequest("GET", "/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("coverage_sessions_open 1\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("coverage_engine_rows 3\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("coverage_engine_epochs 1\n"),
            std::string::npos);
  // (female, young) was never appended: at least one zero-count combination.
  const auto tombstones = response.body.find("coverage_engine_tombstones ");
  ASSERT_NE(tombstones, std::string::npos);
}

// ------------------------------------------------------- X-Request-Id --

TEST_F(ServerObsTest, GeneratesAndEchoesRequestIds) {
  const Response generated = server_->Handle(MakeRequest("GET", "/healthz"));
  const std::string* id = generated.FindHeader("X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->rfind("r-", 0), 0u) << *id;

  Request tagged = MakeRequest("GET", "/healthz");
  tagged.headers.push_back({"X-Request-Id", "caller-supplied-42"});
  const Response echoed = server_->Handle(tagged);
  const std::string* echo = echoed.FindHeader("X-Request-Id");
  ASSERT_NE(echo, nullptr);
  EXPECT_EQ(*echo, "caller-supplied-42");
}

// ----------------------------------------------------------- ?timing=1 --

TEST_F(ServerObsTest, TimingParamAddsStageBreakdown) {
  const Response response = server_->Handle(
      MakeRequest("POST", "/v1/audit?timing=1", R"({"tau": 30})"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  const JsonValue* timing = body->Find("timing");
  ASSERT_NE(timing, nullptr) << response.body;
  ASSERT_TRUE(timing->is_object());

  const std::string* request_id = response.FindHeader("X-Request-Id");
  ASSERT_NE(request_id, nullptr);
  EXPECT_EQ(*timing->GetString("request_id"), *request_id);

  const JsonValue* stages = timing->Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_object());
  EXPECT_NE(stages->Find("parse"), nullptr);
  EXPECT_NE(stages->Find("plan"), nullptr);
  EXPECT_NE(stages->Find("search"), nullptr);

  // Stage times are positive and bounded by the total.
  const double total = timing->Find("total_seconds")->AsDouble();
  double stage_sum = 0.0;
  for (const auto& [name, seconds] : stages->AsObject()) {
    EXPECT_GE(seconds.AsDouble(), 0.0) << name;
    stage_sum += seconds.AsDouble();
  }
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, total + 1e-6);

  // The audit payload itself is untouched by the timing add-on.
  EXPECT_NE(body->Find("mups"), nullptr);

  // Without the param there is no timing member.
  const Response plain = server_->Handle(
      MakeRequest("POST", "/v1/audit", R"({"tau": 30})"));
  auto plain_body = json::Parse(plain.body);
  ASSERT_TRUE(plain_body.ok());
  EXPECT_EQ(plain_body->Find("timing"), nullptr);
}

TEST_F(ServerObsTest, SessionAppendTimingCoversEngineUpdate) {
  const std::string id = OpenTinySession();
  const Response append = server_->Handle(MakeRequest(
      "POST", "/v1/sessions/" + id + "/append?timing=1",
      R"({"rows": [["male", "young"]]})"));
  ASSERT_EQ(append.status, 200) << append.body;
  auto body = json::Parse(append.body);
  ASSERT_TRUE(body.ok());
  const JsonValue* timing = body->Find("timing");
  ASSERT_NE(timing, nullptr);
  const JsonValue* stages = timing->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->Find("engine_update"), nullptr) << append.body;
}

// ------------------------------------------------------------ /v1/stats --

TEST_F(ServerObsTest, StatsExposesEngineSection) {
  const std::string id = OpenTinySession();
  server_->Handle(MakeRequest(
      "POST", "/v1/sessions/" + id + "/append",
      R"({"rows": [["male", "young"], ["male", "old"]]})"));

  const Response response = server_->Handle(MakeRequest("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  auto body = json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  const JsonValue* engine = body->Find("engine");
  ASSERT_NE(engine, nullptr) << response.body;
  EXPECT_EQ(*engine->GetUint("sessions"), 1u);
  EXPECT_EQ(*engine->GetUint("rows"), 2u);
  EXPECT_NE(engine->Find("mups"), nullptr);
  EXPECT_NE(engine->Find("tombstones"), nullptr);
  EXPECT_NE(engine->Find("window_rows"), nullptr);
  EXPECT_EQ(*engine->GetUint("executor_threads"),
            static_cast<std::uint64_t>(Executor::Shared().num_helpers()));
  EXPECT_NE(engine->Find("executor_busy"), nullptr);
  // The route table is still there (the pre-obs /v1/stats contract).
  EXPECT_NE(body->Find("routes"), nullptr);
}

// ------------------------------------------------------- slow requests --

/// Restores global log state on scope exit.
struct LogStateGuard {
  ~LogStateGuard() {
    obs::SetLogLevel(obs::LogLevel::kInfo);
    obs::SetLogJson(false);
    obs::SetLogSink(nullptr);
    obs::SetLogRateLimit(50.0, 100.0);
  }
};

TEST(ServerObsSlowRequest, LogsWarnWithStagesAboveThreshold) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  std::mutex mu;
  obs::SetLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogRateLimit(0.0, 0.0);
  obs::SetLogLevel(obs::LogLevel::kWarn);

  CoverageServerOptions options;
  options.slow_request_seconds = 1e-9;  // everything is slow
  CoverageServer server(MakeCompasService(), options);
  const Response response =
      server.Handle(MakeRequest("POST", "/v1/audit", R"({"tau": 30})"));
  ASSERT_EQ(response.status, 200);

  std::lock_guard<std::mutex> lock(mu);
  bool found = false;
  for (const auto& line : lines) {
    if (line.find("slow_request") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("POST /v1/audit"), std::string::npos) << line;
    EXPECT_NE(line.find("request_id="), std::string::npos) << line;
    EXPECT_NE(line.find("search="), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no slow_request event was logged";
}

TEST(ServerObsSlowRequest, ZeroThresholdDisablesTheWarn) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  std::mutex mu;
  obs::SetLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  obs::SetLogRateLimit(0.0, 0.0);
  obs::SetLogLevel(obs::LogLevel::kWarn);

  CoverageServerOptions options;
  options.slow_request_seconds = 0.0;
  CoverageServer server(MakeCompasService(), options);
  server.Handle(MakeRequest("POST", "/v1/audit", R"({"tau": 30})"));

  std::lock_guard<std::mutex> lock(mu);
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("slow_request"), std::string::npos) << line;
  }
}

// --------------------------------------------------- injected registry --

TEST(ServerObsRegistry, InjectedRegistryReceivesTheSeries) {
  obs::MetricsRegistry registry;
  CoverageServerOptions options;
  options.metrics_registry = &registry;
  CoverageServer server(MakeCompasService(), options);
  EXPECT_EQ(&server.metrics_registry(), &registry);
  server.Handle(MakeRequest("GET", "/healthz"));
  const std::string text = obs::RenderPrometheus(registry);
  EXPECT_NE(text.find("coverage_http_request_seconds_count{route=\"GET "
                      "/healthz\"} 1\n"),
            std::string::npos);
}

// --------------------------------------------------- durable sessions --

TEST(ServerObsDurable, FsyncAndWalHistogramsFillOnAppend) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("server_obs_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  {
    CoverageServerOptions options;
    options.data_dir = dir;
    CoverageServer server(MakeCompasService(), options);
    const Response created =
        server.Handle(MakeRequest("POST", "/v1/sessions", kTinySchema));
    ASSERT_EQ(created.status, 201) << created.body;
    const std::string id =
        *json::Parse(created.body)->GetString("session_id");
    const Response append = server.Handle(MakeRequest(
        "POST", "/v1/sessions/" + id + "/append?timing=1",
        R"({"rows": [["male", "young"], ["female", "old"]]})"));
    ASSERT_EQ(append.status, 200) << append.body;

    // The durable path reported its stages into the timing breakdown...
    auto body = json::Parse(append.body);
    ASSERT_TRUE(body.ok());
    const JsonValue* stages = body->Find("timing")->Find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_NE(stages->Find("wal_append"), nullptr) << append.body;

    // ...and the fsync histogram the server wired into session defaults
    // recorded the durable append's sync.
    const Response metrics = server.Handle(MakeRequest("GET", "/metrics"));
    const auto pos =
        metrics.body.find("coverage_persist_fsync_seconds_count ");
    ASSERT_NE(pos, std::string::npos);
    const std::string rest = metrics.body.substr(
        pos + std::string("coverage_persist_fsync_seconds_count ").size());
    EXPECT_NE(rest.substr(0, rest.find('\n')), "0");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace coverage
