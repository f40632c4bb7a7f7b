// Adversarial clients against the event loop (src/net/EventLoop):
// slowloris partial headers, silent idle keep-alives, half-closed sockets,
// thousands of idle connections held open at once, and a slow reader
// forcing write backpressure.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/http_server.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COVERAGE_NET_TEST_TSAN 1
#endif
#endif

namespace coverage {
namespace {

using http::HttpClient;
using http::HttpServer;
using http::Request;
using http::Response;
using http::ServerOptions;

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

/// Reads until EOF (or a socket error) and returns everything received.
std::string ReadUntilClose(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return out;
  }
}

std::unique_ptr<HttpServer> StartEpollServer(ServerOptions options,
                                             HttpServer::Handler handler) {
  options.port = 0;
  auto server = std::make_unique<HttpServer>(options, std::move(handler));
  EXPECT_TRUE(server->Start().ok());
  return server;
}

HttpServer::Handler OkHandler() {
  return [](const Request&) { return Response::Text(200, "ok"); };
}

// ------------------------------------------------------------ slowloris --

TEST(NetEpoll, SlowlorisPartialHeaderGets408) {
  ServerOptions options;
  options.num_threads = 2;
  options.idle_timeout_ms = 150;
  auto server = StartEpollServer(options, OkHandler());

  const int fd = RawConnect(server->port());
  const std::string partial = "GET /healthz HTTP/1.1\r\nHost: trickle";
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  // ... and never finish the head. The idle deadline must answer 408 and
  // close, freeing the connection slot a real slowloris would pin.
  const std::string answer = ReadUntilClose(fd);
  ::close(fd);
  EXPECT_NE(answer.find("HTTP/1.1 408"), std::string::npos) << answer;
  EXPECT_NE(answer.find("Connection: close"), std::string::npos);

  // The server is still fully alive for well-behaved clients.
  auto client = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Get("/");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  server->Stop();
}

TEST(NetEpoll, SilentIdleConnectionIsClosedWithoutBytes) {
  ServerOptions options;
  options.num_threads = 2;
  options.idle_timeout_ms = 120;
  auto server = StartEpollServer(options, OkHandler());

  // A keep-alive connection that never sends anything is closed silently —
  // a 408 would be noise for a peer that never spoke HTTP.
  const int fd = RawConnect(server->port());
  const std::string answer = ReadUntilClose(fd);
  ::close(fd);
  EXPECT_TRUE(answer.empty()) << answer;
  server->Stop();
}

/// The loop sleeps until an idle deadline instead of spinning up to it. A
/// poll timeout truncated to whole milliseconds wakes with a fraction of a
/// millisecond left and then polls with timeout 0 until the deadline
/// arrives: hundreds of iterations for one timeout.
TEST(NetEpoll, IdleDeadlineIsReachedWithoutSpinning) {
  obs::Histogram iterations;
  ServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_ms = 50;
  options.poll_interval_ms = 10000;  // no periodic wake-ups mid-test
  options.loop_latency_histogram = &iterations;
  auto server = StartEpollServer(options, OkHandler());

  const int fd = RawConnect(server->port());
  const std::string answer = ReadUntilClose(fd);
  ::close(fd);
  EXPECT_TRUE(answer.empty()) << answer;
  // One wake-up to accept and one to close at the deadline, plus slack.
  EXPECT_LE(iterations.count(), 8u);
  server->Stop();
}

// ----------------------------------------------------------- half close --

TEST(NetEpoll, HalfClosedClientStillReceivesFullResponse) {
  ServerOptions options;
  options.num_threads = 2;
  auto server = StartEpollServer(options, [](const Request& r) {
    return Response::Text(200, "echo:" + r.body);
  });

  const int fd = RawConnect(server->port());
  const std::string request =
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // FIN our write side before the response exists: the server must treat
  // the buffered request as live and deliver the answer anyway.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string answer = ReadUntilClose(fd);
  ::close(fd);
  EXPECT_NE(answer.find("HTTP/1.1 200"), std::string::npos) << answer;
  EXPECT_NE(answer.find("echo:hello"), std::string::npos);
  server->Stop();
}

// ------------------------------------------------- many idle keep-alive --

TEST(NetEpoll, ThousandsOfIdleKeepAliveConnectionsStayCheap) {
  ServerOptions options;
  options.num_threads = 2;
  options.backlog = 512;
  options.idle_timeout_ms = 120000;  // nothing may time out mid-test
  options.max_pending = 0;           // these connections are idle, not load
  auto server = StartEpollServer(options, OkHandler());

  // Two fds per loopback connection live in this process (client + server
  // end), so the ceiling comes from the fd rlimit with headroom for the
  // suite's own descriptors.
  rlimit fd_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &fd_limit), 0);
  std::size_t target = std::min<rlim_t>(
      (fd_limit.rlim_cur > 300 ? (fd_limit.rlim_cur - 300) / 2 : 64), 4000);
#ifdef COVERAGE_NET_TEST_TSAN
  target = std::min<std::size_t>(target, 256);  // TSan multiplies the cost
#endif
  ASSERT_GE(target, 64u);

  std::vector<int> fds;
  fds.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    fds.push_back(RawConnect(server->port()));
  }
  // The loop accepts asynchronously; wait for the gauge to catch up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server->stats().open_connections < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server->stats().open_connections, target);

  // With every idle connection parked in the poller, live traffic still
  // flows at full quality.
  auto client = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto response = client->Get("/");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }

  for (const int fd : fds) ::close(fd);
  server->Stop();
}

// --------------------------------------------------------- backpressure --

TEST(NetEpoll, SlowReaderForcesWriteBackpressureWithoutLoss) {
  const std::string body(4 * 1024 * 1024, 'x');
  ServerOptions options;
  options.num_threads = 2;
  auto server = StartEpollServer(
      options, [&body](const Request&) { return Response::Text(200, body); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small = 8192;  // keep the kernel from hiding the backpressure
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request = "GET /big HTTP/1.1\r\nHost: slow\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Refuse to read until the server visibly parks bytes in its write
  // buffer — EAGAIN on the socket moved it to wait-for-writable.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_backpressure = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (server->stats().write_buffer_bytes > 0) {
      saw_backpressure = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_backpressure);

  // Now drain slowly; every byte must arrive, in order, despite the stalls.
  std::string received;
  char buf[16384];
  int pauses = 3;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      received.append(buf, static_cast<std::size_t>(n));
      if (pauses > 0) {
        --pauses;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      const std::size_t head_end = received.find("\r\n\r\n");
      if (head_end != std::string::npos &&
          received.size() >= head_end + 4 + body.size()) {
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const std::size_t head_end = received.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_NE(received.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(received.substr(head_end + 4), body);
  // Fully drained: nothing left parked for this connection.
  server->Stop();
}

}  // namespace
}  // namespace coverage
