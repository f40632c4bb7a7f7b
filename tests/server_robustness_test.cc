#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/json.h"

namespace coverage {
namespace {

using http::HttpClient;
using http::Request;
using http::Response;
using http::ServerOptions;
using json::JsonValue;

/// Zeroes the wall-clock fields in place — the one legitimately
/// nondeterministic part of a response body (same idiom as the
/// byte-equivalence suite in coverage_server_test.cc).
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

// ----------------------------------------------------- accept hardening --

/// An injected transient accept(2) failure (EMFILE: out of fds) must not
/// stop accepting — the server backs off, counts the retry, and
/// keeps serving once the condition clears.
TEST(HttpServerRobustness, TransientAcceptFailureBacksOffAndKeepsServing) {
  std::atomic<int> failures_left{3};
  ServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  options.poll_interval_ms = 5;  // short backoff: the test stays fast
  options.accept_fn = [&](int listen_fd) -> int {
    if (failures_left.fetch_sub(1) > 0) {
      errno = EMFILE;
      return -1;
    }
    return ::accept(listen_fd, nullptr, nullptr);
  };
  http::HttpServer server(options, [](const Request&) {
    return Response::Text(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());

  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Get("/anything");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_GE(server.stats().accept_retries, 3u);
  server.Stop();
}

/// A helper gate: handlers block on it until the test opens it. Once open
/// it stays open, releasing every waiter.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Bounded wait for an atomic counter — a failed request in a helper
/// thread must fail the test, not hang it forever.
void AwaitAtLeast(const std::atomic<int>& counter, int n) {
  for (int spin = 0; spin < 10000 && counter.load() < n; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(counter.load(), n) << "condition never reached";
}

/// With every worker busy and max_pending connections already waiting for
/// their first dispatch, a new connection is shed immediately with 503 +
/// Retry-After instead of waiting forever — and once load drains, the
/// server serves normally again.
TEST(HttpServerRobustness, OverloadShedsWith503AndRetryAfter) {
  Gate gate;
  std::atomic<int> handlers_running{0};
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;  // one worker: easy to saturate
  options.max_pending = 1;
  options.retry_after_seconds = 7;
  http::HttpServer server(options, [&](const Request&) {
    handlers_running.fetch_add(1);
    gate.Wait();
    return Response::Text(200, "slow done");
  });
  ASSERT_TRUE(server.Start().ok());

  // A occupies the only worker.
  std::thread a([&] {
    auto client = HttpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto response = client->Get("/slow");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  AwaitAtLeast(handlers_running, 1);

  {
    // B fills the one queue slot (it is admitted, not yet served).
    auto b = HttpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(b.ok());
    // Admission happens on the event-loop thread; give it a moment.
    for (int spin = 0; spin < 200 && server.stats().connections_accepted < 2;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // C finds the queue full and is shed with 503 + Retry-After, served
    // straight from the event loop — no worker needed, so the rejection
    // is immediate even though the server is saturated.
    auto c = HttpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    auto shed = c->Get("/healthz");
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed->status, 503);
    const std::string* retry_after = shed->FindHeader("Retry-After");
    ASSERT_NE(retry_after, nullptr);
    EXPECT_EQ(*retry_after, "7");
    EXPECT_GE(server.stats().connections_shed, 1u);

    // Drain: A finishes, then B gets served.
    gate.Open();
    a.join();
    auto b_response = b->Get("/queued");
    ASSERT_TRUE(b_response.ok());
    EXPECT_EQ(b_response->status, 200);
  }  // B's keep-alive connection closes here, releasing the lone worker
  auto fresh = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.ok());
  auto after = fresh->Get("/after");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  server.Stop();
}

/// A connection whose first request dispatches after its queue-wait
/// deadline is shed: its client has likely timed out already.
TEST(HttpServerRobustness, QueueWaitDeadlineShedsStaleConnections) {
  Gate gate;
  std::atomic<int> handlers_running{0};
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.max_pending = 8;
  // Generous enough that A's own pop never trips it on a loaded machine
  // (the shed we test comes from holding B queued far longer below).
  options.max_queue_wait_ms = 250;
  http::HttpServer server(options, [&](const Request&) {
    handlers_running.fetch_add(1);
    gate.Wait();
    return Response::Text(200, "done");
  });
  ASSERT_TRUE(server.Start().ok());

  std::thread a([&] {
    auto client = HttpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto response = client->Get("/slow");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  AwaitAtLeast(handlers_running, 1);

  // B sits in the queue well past the deadline while A holds the worker,
  // then gets shed the moment the worker picks it up.
  auto b = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(b.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  gate.Open();
  a.join();
  auto b_response = b->Get("/stale");
  ASSERT_TRUE(b_response.ok()) << b_response.status().ToString();
  EXPECT_EQ(b_response->status, 503);
  EXPECT_GE(server.stats().connections_shed, 1u);
  server.Stop();
}

// ----------------------------------------------- TTL reaper (fake clock) --

CoverageService SmallService() {
  ServiceOptions options;
  options.num_threads = 1;
  auto service = CoverageService::FromSpec(DatagenSpec{"diagonal", 0, 4, 42},
                                           options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

Request Post(const std::string& target, std::string body) {
  Request r;
  r.method = "POST";
  r.target = target;
  r.body = std::move(body);
  return r;
}

Request Get(const std::string& target) {
  Request r;
  r.method = "GET";
  r.target = target;
  return r;
}

std::string CreateSession(CoverageServer* server, const std::string& body) {
  const Response created = server->Handle(Post("/v1/sessions", body));
  EXPECT_EQ(created.status, 201) << created.body;
  auto parsed = json::Parse(created.body);
  EXPECT_TRUE(parsed.ok());
  return *parsed->GetString("session_id");
}

constexpr const char* kTinySchemaSession = R"({
  "schema": {"attributes": [
    {"name": "gender", "values": ["male", "female"]},
    {"name": "age", "values": ["young", "old"]}
  ]},
  "tau": 2,
  "idle_ttl_seconds": 60
})";

/// Idle sessions are reaped once their TTL elapses on the injected clock;
/// activity (any session verb) resets the idle timer, and ttl 0 means
/// never. Driven through Handle() — no sockets, fully deterministic.
TEST(CoverageServerReaper, IdleTtlReapsOnFakeClockAndActivityResets) {
  auto now = std::chrono::steady_clock::time_point{};
  CoverageServerOptions options;
  options.clock = [&now] { return now; };
  CoverageServer server(SmallService(), options);

  const std::string mortal = CreateSession(&server, kTinySchemaSession);
  const Response immortal_created = server.Handle(Post("/v1/sessions",
                                                       R"({"tau": 2})"));
  ASSERT_EQ(immortal_created.status, 201);  // idle_ttl_seconds defaults to 0
  ASSERT_EQ(server.num_sessions(), 2u);

  // 30s in: touch the mortal session, which restarts its idle clock.
  now += std::chrono::seconds(30);
  const Response audit =
      server.Handle(Post("/v1/sessions/" + mortal + "/audit", ""));
  EXPECT_EQ(audit.status, 200) << audit.body;

  // 59s after the touch: still alive.
  now += std::chrono::seconds(59);
  EXPECT_EQ(server.ReapIdleSessions(), 0u);
  EXPECT_EQ(server.num_sessions(), 2u);

  // 61s after the touch: reaped. The ttl-0 session lives forever.
  now += std::chrono::seconds(2);
  EXPECT_EQ(server.ReapIdleSessions(), 1u);
  EXPECT_EQ(server.num_sessions(), 1u);
  const Response gone =
      server.Handle(Post("/v1/sessions/" + mortal + "/audit", ""));
  EXPECT_EQ(gone.status, 404);
}

/// A started server reaps on its own: the dedicated reaper thread sweeps
/// every reaper_interval_ms with no manual ReapIdleSessions() call.
TEST(CoverageServerReaper, StartedServerReapsIdleSessionsOnItsOwn) {
  std::atomic<int> now_seconds{0};
  CoverageServerOptions options;
  options.http.port = 0;
  options.reaper_interval_ms = 20;
  options.clock = [&now_seconds] {
    return std::chrono::steady_clock::time_point{
        std::chrono::seconds(now_seconds.load())};
  };
  CoverageServer server(SmallService(), options);
  ASSERT_TRUE(server.Start().ok());
  CreateSession(&server, kTinySchemaSession);
  ASSERT_EQ(server.num_sessions(), 1u);

  now_seconds.store(61);  // past the session's 60 s idle TTL
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.num_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.num_sessions(), 0u);
  server.Stop();
}

class DurableServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_dir_ =
        (std::filesystem::temp_directory_path() /
         ("coverage_server_robustness_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(data_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(data_dir_); }

  std::string data_dir_;
};

/// Reaping a durable session checkpoints and closes it but leaves its
/// on-disk state: the next boot (or explicit recovery) resurrects it.
/// Only DELETE destroys data.
TEST_F(DurableServerTest, ReaperPreservesDurableStateForRecovery) {
  auto now = std::chrono::steady_clock::time_point{};
  CoverageServerOptions options;
  options.clock = [&now] { return now; };
  options.data_dir = data_dir_;
  CoverageServer server(SmallService(), options);
  ASSERT_TRUE(server.RecoverSessions().ok());

  const std::string id = CreateSession(&server, kTinySchemaSession);
  const Response append = server.Handle(
      Post("/v1/sessions/" + id + "/append",
           R"({"rows": [["male", "young"], ["male", "young"],
                        ["female", "old"]]})"));
  ASSERT_EQ(append.status, 200) << append.body;
  const Response before =
      server.Handle(Post("/v1/sessions/" + id + "/audit", ""));
  ASSERT_EQ(before.status, 200);

  now += std::chrono::seconds(61);
  EXPECT_EQ(server.ReapIdleSessions(), 1u);
  EXPECT_EQ(server.num_sessions(), 0u);
  // The reaper checkpointed and closed — the directory survives.
  EXPECT_TRUE(std::filesystem::exists(data_dir_ + "/" + id));

  // Recovery resurrects the session with the identical audit answer.
  ASSERT_TRUE(server.RecoverSessions().ok());
  EXPECT_EQ(server.num_sessions(), 1u);
  const Response after =
      server.Handle(Post("/v1/sessions/" + id + "/audit", ""));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(Normalized(after.body), Normalized(before.body));

  // DELETE is the explicit destroy: state is gone for good.
  Request del;
  del.method = "DELETE";
  del.target = "/v1/sessions/" + id;
  const Response deleted = server.Handle(del);
  EXPECT_EQ(deleted.status, 200);
  EXPECT_FALSE(std::filesystem::exists(data_dir_ + "/" + id));
}

// -------------------------------------------- restart / recovery parity --

/// Kill the server object outright (no checkpoint, no graceful close) and
/// boot a fresh one over the same --data-dir: the fsync WAL alone must
/// reproduce the session byte-identically.
TEST_F(DurableServerTest, RestartRecoversSessionsByteIdentically) {
  std::string id;
  std::string before_audit;
  std::string before_query;
  {
    CoverageServerOptions options;
    options.data_dir = data_dir_;
    CoverageServer server(SmallService(), options);
    ASSERT_TRUE(server.RecoverSessions().ok());
    id = CreateSession(&server, R"({
      "schema": {"attributes": [
        {"name": "gender", "values": ["male", "female"]},
        {"name": "age", "values": ["young", "old"]}
      ]},
      "tau": 2,
      "durability": "fsync"
    })");
    ASSERT_EQ(server
                  .Handle(Post("/v1/sessions/" + id + "/append",
                               R"({"rows": [["male", "young"],
                                            ["male", "old"],
                                            ["female", "old"]]})"))
                  .status,
              200);
    ASSERT_EQ(server
                  .Handle(Post("/v1/sessions/" + id + "/retract",
                               R"({"rows": [["male", "old"]]})"))
                  .status,
              200);
    before_audit =
        server.Handle(Post("/v1/sessions/" + id + "/audit", "")).body;
    before_query = server
                       .Handle(Post("/v1/sessions/" + id + "/query",
                                    R"({"patterns": ["0X", "X1", "10"]})"))
                       .body;
  }  // dies without any shutdown courtesy

  CoverageServerOptions options;
  options.data_dir = data_dir_;
  CoverageServer rebooted(SmallService(), options);
  ASSERT_TRUE(rebooted.RecoverSessions().ok());
  ASSERT_EQ(rebooted.num_sessions(), 1u);

  EXPECT_EQ(
      Normalized(
          rebooted.Handle(Post("/v1/sessions/" + id + "/audit", "")).body),
      Normalized(before_audit));
  EXPECT_EQ(
      Normalized(rebooted
                     .Handle(Post("/v1/sessions/" + id + "/query",
                                  R"({"patterns": ["0X", "X1", "10"]})"))
                     .body),
      Normalized(before_query));

  // /v1/stats accounts for the recovery.
  auto stats = json::Parse(rebooted.Handle(Get("/v1/stats")).body);
  ASSERT_TRUE(stats.ok());
  const JsonValue* persist = stats->Find("persist");
  ASSERT_NE(persist, nullptr);
  EXPECT_EQ(*persist->GetUint("sessions_recovered"), 1u);
  EXPECT_EQ(*persist->GetUint("durable_sessions"), 1u);
  EXPECT_EQ(*persist->GetUint("records_replayed"), 2u);  // append + retract
  EXPECT_GT(*persist->GetUint("rows_replayed"), 0u);
  // The recovered session keeps its durability knobs: a fresh append both
  // works and is logged.
  const Response more = rebooted.Handle(
      Post("/v1/sessions/" + id + "/append",
           R"({"rows": [["female", "young"]]})"));
  EXPECT_EQ(more.status, 200) << more.body;
}

/// Requesting a durable knob on a memory-only server is a clean client
/// error, and /v1/stats always carries the persist section (all zeros
/// here) so dashboards never need a conditional.
TEST(CoverageServerPersistStats, MemoryOnlyServerRejectsDurabilityKnob) {
  CoverageServerOptions options;  // no data_dir
  CoverageServer server(SmallService(), options);
  const Response refused = server.Handle(
      Post("/v1/sessions", R"({"tau": 2, "durability": "fsync"})"));
  EXPECT_EQ(refused.status, 400) << refused.body;

  auto stats = json::Parse(server.Handle(Get("/v1/stats")).body);
  ASSERT_TRUE(stats.ok());
  const JsonValue* persist = stats->Find("persist");
  ASSERT_NE(persist, nullptr);
  EXPECT_EQ(*persist->GetUint("durable_sessions"), 0u);
  EXPECT_EQ(*persist->GetUint("sessions_recovered"), 0u);
  EXPECT_EQ(*persist->GetUint("sessions_reaped"), 0u);
  EXPECT_EQ(*persist->GetUint("fsync_calls"), 0u);
}

}  // namespace
}  // namespace coverage
