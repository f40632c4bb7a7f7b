#include "server/coverage_server.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "server/http_client.h"
#include "server/json.h"
#include "server/wire.h"
#include "service/coverage_service.h"

namespace coverage {
namespace {

using http::HttpClient;
using http::Request;
using http::Response;
using json::JsonValue;

/// Zeroes every "seconds"-suffixed member in place: wall-clock timings are
/// the one legitimately nondeterministic part of the wire format, so the
/// byte-equivalence assertions compare everything else exactly.
void ZeroTimings(JsonValue& v) {
  if (v.is_array()) {
    for (JsonValue& item : v.AsArray()) ZeroTimings(item);
  } else if (v.is_object()) {
    for (auto& [key, value] : v.AsObject()) {
      if (key == "seconds" || key == "read_seconds" ||
          key == "update_seconds") {
        value = JsonValue(0);
      } else {
        ZeroTimings(value);
      }
    }
  }
}

std::string Normalized(const std::string& json_text) {
  auto parsed = json::Parse(json_text);
  EXPECT_TRUE(parsed.ok()) << json_text;
  if (!parsed.ok()) return "<unparseable>";
  ZeroTimings(*parsed);
  return json::Serialize(*parsed);
}

/// num_threads defaults to 1 because the byte-equivalence tests compare
/// MupSearchStats too, and the parallel DEEPDIVER's work sharing makes its
/// *query counts* (not its MUP set) run-dependent.
CoverageService MakeCompasService(int num_threads = 1) {
  ServiceOptions options;
  options.num_threads = num_threads;
  auto service = CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 42},
                                           options);
  EXPECT_TRUE(service.ok());
  return std::move(*service);
}

class CoverageServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoverageServerOptions options;
    options.http.port = 0;
    options.http.num_threads = 4;
    options.session_defaults.tau = 5;
    server_ = std::make_unique<CoverageServer>(MakeCompasService(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  HttpClient Client() {
    auto client = HttpClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  std::unique_ptr<CoverageServer> server_;
};

// ------------------------------------------------------------- basics --

TEST_F(CoverageServerTest, HealthzReportsServing) {
  auto client = Client();
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body->GetString("status"), "serving");
  EXPECT_EQ(*body->GetUint("num_rows"), 6889u);
}

TEST_F(CoverageServerTest, SchemaRouteMatchesService) {
  auto client = Client();
  auto response = client.Get("/v1/schema");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body,
            json::Serialize(wire::ToJson(server_->service().schema())));
}

// ------------------------------------------------- byte equivalence --

TEST_F(CoverageServerTest, AuditOverLoopbackIsByteEquivalentToInProcess) {
  AuditRequest request;
  request.tau = 30;
  auto expected = server_->service().Audit(request);
  ASSERT_TRUE(expected.ok());
  const std::string expected_body = json::Serialize(
      wire::ToJson(*expected, server_->service().schema()));

  auto client = Client();
  auto response = client.Post("/v1/audit", R"({"tau": 30})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(Normalized(response->body), Normalized(expected_body));
}

TEST_F(CoverageServerTest, QueryOverLoopbackIsByteEquivalentToInProcess) {
  QueryBatchRequest request;
  for (const char* text : {"XXXX", "1XXX", "XX22", "0120"}) {
    auto pattern = Pattern::Parse(text, server_->service().schema());
    ASSERT_TRUE(pattern.ok());
    request.queries.push_back(QueryRequest{*pattern, 0});
  }
  auto expected = server_->service().QueryBatch(request);
  ASSERT_TRUE(expected.ok());

  auto client = Client();
  auto response = client.Post(
      "/v1/query", R"({"patterns": ["XXXX", "1XXX", "XX22", "0120"]})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(Normalized(response->body),
            Normalized(json::Serialize(wire::ToJson(*expected))));
}

TEST_F(CoverageServerTest, EnhanceOverLoopbackIsByteEquivalentToInProcess) {
  EnhanceRequest request;
  request.tau = 30;
  request.lambda = 1;
  auto expected = server_->service().Enhance(request);
  ASSERT_TRUE(expected.ok());

  auto client = Client();
  auto response =
      client.Post("/v1/enhance", R"({"tau": 30, "lambda": 1})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(Normalized(response->body),
            Normalized(json::Serialize(
                wire::ToJson(*expected, server_->service().schema()))));
}

TEST_F(CoverageServerTest, ThresholdQueriesUseTheEarlyExitKernel) {
  auto client = Client();
  auto response = client.Post(
      "/v1/query",
      R"({"queries": [{"pattern": "XXXX", "tau": 10}, {"pattern": "XX22"}]})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  const JsonValue::Array& results = body->Find("results")->AsArray();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(*results[0].GetBool("covered"), true);
  EXPECT_EQ(*results[0].GetUint("coverage"), 0u);  // threshold: not computed
}

// ------------------------------------------------------ error mapping --

TEST_F(CoverageServerTest, ErrorsMapOntoHttpStatusCodes) {
  auto client = Client();
  struct Case {
    const char* name;
    const char* target;
    const char* body;
    int want;
    const char* code;
  };
  const Case cases[] = {
      {"bad JSON", "/v1/audit", "{nope", 400, "invalid_argument"},
      {"unknown member", "/v1/audit", R"({"tauu": 3})", 400,
       "invalid_argument"},
      {"tau zero", "/v1/audit", R"({"tau": 0})", 400, "invalid_argument"},
      {"wrong member type", "/v1/audit", R"({"tau": "thirty"})", 400,
       "invalid_argument"},
      {"bad algorithm", "/v1/audit", R"({"algorithm": "quantum"})", 400,
       "invalid_argument"},
      {"bad pattern width", "/v1/query", R"({"patterns": ["XX"]})", 400,
       "invalid_argument"},
      {"queries and patterns", "/v1/query",
       R"({"patterns": ["XXXX"], "queries": []})", 400, "invalid_argument"},
      {"unknown session", "/v1/sessions/s999/audit", "{}", 404, "not_found"},
  };
  for (const Case& c : cases) {
    auto response = client.Post(c.target, c.body);
    ASSERT_TRUE(response.ok()) << c.name;
    EXPECT_EQ(response->status, c.want) << c.name;
    auto body = json::Parse(response->body);
    ASSERT_TRUE(body.ok()) << c.name;
    const JsonValue* error = body->Find("error");
    ASSERT_NE(error, nullptr) << c.name;
    EXPECT_EQ(*error->GetString("code"), c.code) << c.name;
  }
}

TEST_F(CoverageServerTest, MethodAndRouteMismatches) {
  auto client = Client();
  auto wrong_method = client.Post("/healthz", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  auto unknown = client.Get("/v2/nothing");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);
}

// --------------------------------------------------- session lifecycle --

TEST_F(CoverageServerTest, FullSessionLifecycleOverLoopback) {
  auto client = Client();

  // Create a session over an explicit 2x2 schema, tau 2.
  auto created = client.Post("/v1/sessions", R"({
    "schema": {"attributes": [
      {"name": "gender", "values": ["male", "female"]},
      {"name": "age", "values": ["young", "old"]}
    ]},
    "tau": 2
  })");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  auto created_body = json::Parse(created->body);
  ASSERT_TRUE(created_body.ok());
  const std::string id = *created_body->GetString("session_id");
  EXPECT_EQ(server_->num_sessions(), 1u);

  // Audit of the empty session: the root is the only MUP.
  auto empty_audit = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(empty_audit.ok());
  EXPECT_EQ(empty_audit->status, 200);
  auto empty_audit_body = json::Parse(empty_audit->body);
  ASSERT_TRUE(empty_audit_body.ok());
  EXPECT_EQ(empty_audit_body->Find("mups")->AsArray().size(), 1u);
  EXPECT_EQ(*empty_audit_body->Find("mups")->AsArray()[0].GetString(
                "pattern"),
            "XX");

  // Append rows by label and by encoded value, mixed.
  auto append = client.Post("/v1/sessions/" + id + "/append", R"({
    "rows": [["male", "young"], ["male", "young"], [0, 1], [0, 1],
             ["female", "old"]]
  })");
  ASSERT_TRUE(append.ok());
  ASSERT_EQ(append->status, 200) << append->body;
  auto append_body = json::Parse(append->body);
  ASSERT_TRUE(append_body.ok());
  EXPECT_EQ(*append_body->GetUint("rows_appended"), 5u);
  EXPECT_EQ(*append_body->GetUint("epoch"), 1u);

  // (male, young) and (male, old) have counts 2, 2; female rows count 1.
  auto query = client.Post("/v1/sessions/" + id + "/query",
                           R"({"patterns": ["0X", "1X", "00", "11"]})");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->status, 200) << query->body;
  auto query_body = json::Parse(query->body);
  ASSERT_TRUE(query_body.ok());
  const JsonValue::Array& results = query_body->Find("results")->AsArray();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(*results[0].GetUint("coverage"), 4u);  // 0X: all male rows
  EXPECT_EQ(*results[1].GetUint("coverage"), 1u);  // 1X: one female row
  EXPECT_EQ(*results[2].GetUint("coverage"), 2u);  // 00: male young
  EXPECT_EQ(*results[3].GetUint("coverage"), 1u);  // 11: female old

  // The audit matches an in-process session fed the same data (content
  // equivalence of the full wire encoding).
  auto session = CoverageService::OpenSession(
      [&] {
        std::vector<Attribute> attrs;
        attrs.push_back(Attribute{"gender", {"male", "female"}});
        attrs.push_back(Attribute{"age", {"young", "old"}});
        return Schema(attrs);
      }(),
      [&] {
        CoverageService::SessionOptions so;
        so.tau = 2;
        return so;
      }());
  ASSERT_TRUE(session.ok());
  Dataset rows(session->schema());
  rows.AppendRow(std::vector<Value>{0, 0});
  rows.AppendRow(std::vector<Value>{0, 0});
  rows.AppendRow(std::vector<Value>{0, 1});
  rows.AppendRow(std::vector<Value>{0, 1});
  rows.AppendRow(std::vector<Value>{1, 1});
  ASSERT_TRUE(session->Append(rows).ok());
  auto audit = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(Normalized(audit->body),
            Normalized(json::Serialize(
                wire::ToJson(session->Audit(), session->schema()))));

  // Retract the female row; every "1X"-side pattern goes uncovered.
  auto retract = client.Post("/v1/sessions/" + id + "/retract",
                             R"({"rows": [["female", "old"]]})");
  ASSERT_TRUE(retract.ok());
  ASSERT_EQ(retract->status, 200) << retract->body;
  auto retract_body = json::Parse(retract->body);
  ASSERT_TRUE(retract_body.ok());
  EXPECT_EQ(*retract_body->GetUint("rows_retracted"), 1u);

  Dataset gone(session->schema());
  gone.AppendRow(std::vector<Value>{1, 1});
  ASSERT_TRUE(session->Retract(gone).ok());
  auto after = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Normalized(after->body),
            Normalized(json::Serialize(
                wire::ToJson(session->Audit(), session->schema()))));

  // Sessions list shows it; close it; routes 404 afterwards.
  auto list = client.Get("/v1/sessions");
  ASSERT_TRUE(list.ok());
  auto list_body = json::Parse(list->body);
  ASSERT_TRUE(list_body.ok());
  ASSERT_EQ(list_body->Find("sessions")->AsArray().size(), 1u);
  EXPECT_EQ(*list_body->Find("sessions")->AsArray()[0].GetString(
                "session_id"),
            id);

  Request del;
  del.method = "DELETE";
  del.target = "/v1/sessions/" + id;
  auto closed = client.Roundtrip(std::move(del));
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->status, 200);
  EXPECT_EQ(server_->num_sessions(), 0u);
  auto missing = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(CoverageServerTest, SessionDefaultsToServedSchema) {
  auto client = Client();
  auto created = client.Post("/v1/sessions", R"({"tau": 3})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  auto body = json::Parse(created->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body->GetUint("num_attributes"),
            static_cast<std::uint64_t>(
                server_->service().schema().num_attributes()));
}

TEST_F(CoverageServerTest, SessionRejectsBadRows) {
  auto client = Client();
  auto created = client.Post("/v1/sessions", "{}");
  ASSERT_EQ(created->status, 201);
  const std::string id =
      *json::Parse(created->body)->GetString("session_id");
  struct Case {
    const char* name;
    const char* body;
  };
  const Case cases[] = {
      {"row too short", R"({"rows": [["African-American"]]})"},
      {"unknown label", R"({"rows": [["Martian", "x", "x", "x"]]})"},
      {"out-of-range int", R"({"rows": [[99, 0, 0, 0]]})"},
      {"negative int", R"({"rows": [[-1, 0, 0, 0]]})"},
      {"non-scalar cell", R"({"rows": [[[0], 0, 0, 0]]})"},
      {"rows not arrays", R"({"rows": [42]})"},
      {"unknown member", R"({"rowz": []})"},
  };
  for (const Case& c : cases) {
    auto response = client.Post("/v1/sessions/" + id + "/append", c.body);
    ASSERT_TRUE(response.ok()) << c.name;
    EXPECT_EQ(response->status, 400) << c.name << ": " << response->body;
  }
  // Nothing was appended by any rejected request.
  auto audit = client.Post("/v1/sessions/" + id + "/audit", "");
  auto audit_body = json::Parse(audit->body);
  ASSERT_TRUE(audit_body.ok());
  EXPECT_EQ(*audit_body->GetUint("num_rows"), 0u);
}

// -------------------------------------------------------------- stats --

TEST_F(CoverageServerTest, StatsCountPerRouteWithLatencies) {
  auto client = Client();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Post("/v1/query", R"({"patterns": ["XXXX"]})").ok());
  }
  ASSERT_TRUE(client.Post("/v1/audit", R"({"tau": 0})").ok());  // an error
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto body = json::Parse(stats->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* routes = body->Find("routes");
  ASSERT_NE(routes, nullptr);
  const JsonValue* query = routes->Find("POST /v1/query");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(*query->GetUint("count"), 3u);
  EXPECT_EQ(*query->GetUint("errors"), 0u);
  EXPECT_GT(query->Find("p50_seconds")->AsDouble(), 0.0);
  EXPECT_GE(query->Find("p99_seconds")->AsDouble(),
            query->Find("p50_seconds")->AsDouble());
  const JsonValue* audit = routes->Find("POST /v1/audit");
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(*audit->GetUint("count"), 1u);
  EXPECT_EQ(*audit->GetUint("errors"), 1u);
  // The stats handler reads the counter before its own request is added.
  EXPECT_GE(*body->Find("server")->GetUint("requests_handled"), 4u);
}

// -------------------------------------------------- concurrent clients --

/// TSan canary: immutable queries, session writes, session queries, and
/// stats reads all race against each other across live sockets.
TEST(CoverageServerConcurrency, MixedTrafficCanary) {
  CoverageServerOptions options;
  options.http.port = 0;
  options.http.num_threads = 4;
  options.session_defaults.tau = 2;
  CoverageServer server(MakeCompasService(/*num_threads=*/2), options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto setup = HttpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(setup.ok());
  auto created = setup->Post("/v1/sessions", R"({"tau": 2})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201);
  const std::string id =
      *json::Parse(created->body)->GetString("session_id");

  constexpr int kThreads = 6;
  constexpr int kIterations = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        StatusOr<Response> response = Status::Internal("unset");
        switch ((t + i) % 4) {
          case 0:
            response = client->Post("/v1/query",
                                    R"({"patterns": ["XXXX", "1XXX"]})");
            break;
          case 1:
            response = client->Post(
                "/v1/sessions/" + id + "/append",
                R"({"rows": [[0, 0, 0, 0], [1, 1, 1, 1]]})");
            break;
          case 2:
            response = client->Post("/v1/sessions/" + id + "/query",
                                    R"({"patterns": ["0XXX"]})");
            break;
          default:
            response = client->Get("/v1/stats");
            break;
        }
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

}  // namespace
}  // namespace coverage
