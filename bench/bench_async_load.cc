// Async-serving load test: holds ~10k established keep-alive connections
// against coverage_server's event loop while a handful of closed-loop
// clients measure request latency through the crowd. The point of the
// event loop is exactly this shape — massive idle concurrency must cost
// nothing but memory, and the p99 of live traffic must not degrade behind
// thousands of parked sockets.
//
// Process layout: the per-process fd limit counts both ends of a loopback
// connection, so one process cannot hold 10k connections twice over. The
// parent owns the server (one accepted fd per connection); a forked child
// owns the client ends, opens them, sends one priming request on each (so
// every connection is a real keep-alive, not a never-spoke fresh socket),
// and parks until the parent finishes measuring. The child runs between
// fork and _exit on raw syscalls only — no allocation, no locks — because
// it forked off a multithreaded parent.
//
// Emits BENCH_async_load.json: one row per measured workload with the idle
// connection count, throughput, and latency quantiles.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/coverage_server.h"
#include "server/http_client.h"

namespace {

using coverage::CoverageServer;
using coverage::CoverageServerOptions;
using coverage::CoverageService;
using coverage::DatagenSpec;
using coverage::ServiceOptions;
using coverage::Stopwatch;
using coverage::http::HttpClient;

// Child-side storage, static so the post-fork code never allocates.
constexpr std::size_t kMaxIdle = 16384;
int g_idle_fds[kMaxIdle];

/// Child process body: opens `count` keep-alive connections, primes each
/// with one pipelined GET (responses stay in our kernel buffers — we never
/// read them, which is fine for socket-buffer-sized bodies), reports how
/// many connected via `ready_fd`, then parks until `done_fd` closes.
/// Raw syscalls only; exits with _exit.
void ChildHoldConnections(int port, std::size_t count, int ready_fd,
                          int done_fd) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const char request[] =
      "GET /healthz HTTP/1.1\r\nHost: bench-async-load\r\n\r\n";
  std::size_t opened = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      break;
    }
    ssize_t sent = ::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
    if (sent != static_cast<ssize_t>(sizeof(request) - 1)) {
      ::close(fd);
      break;
    }
    g_idle_fds[opened++] = fd;
  }
  std::uint64_t report = opened;
  (void)!::write(ready_fd, &report, sizeof(report));
  char byte;
  while (::read(done_fd, &byte, 1) < 0 && errno == EINTR) {
  }
  for (std::size_t i = 0; i < opened; ++i) ::close(g_idle_fds[i]);
  ::_exit(0);
}

struct LoadResult {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double throughput() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

double Quantile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

LoadResult RunClosedLoop(int port, int num_clients, const std::string& method,
                         const std::string& target, const std::string& body,
                         double seconds) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(num_clients));
  std::atomic<std::uint64_t> failures{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(1 << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        Stopwatch timer;
        auto response = method == "GET" ? client->Get(target)
                                        : client->Post(target, body);
        const double us = timer.ElapsedSeconds() * 1e6;
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
        } else {
          mine.push_back(us);
        }
      }
    });
  }

  Stopwatch wall;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  LoadResult result;
  result.seconds = wall.ElapsedSeconds();
  std::vector<double> all;
  for (auto& mine : latencies) {
    result.requests += mine.size();
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.failures = failures.load();
  std::sort(all.begin(), all.end());
  result.p50_us = Quantile(all, 0.50);
  result.p99_us = Quantile(all, 0.99);
  return result;
}

}  // namespace

int main() {
  using coverage::bench::Banner;
  using coverage::bench::BenchJson;
  using coverage::bench::FullScale;

  Banner("async serving under massive idle concurrency",
         "event loop, ~10k parked keep-alive connections + live load");

  // Both processes pay one fd per connection; leave headroom for the
  // binary's own descriptors on either side of the fork.
  rlimit fd_limit{};
  if (::getrlimit(RLIMIT_NOFILE, &fd_limit) != 0) {
    std::cerr << "getrlimit: " << std::strerror(errno) << "\n";
    return 1;
  }
  const std::size_t idle_target = std::min<std::size_t>(
      {kMaxIdle, static_cast<std::size_t>(10000),
       fd_limit.rlim_cur > 400 ? static_cast<std::size_t>(fd_limit.rlim_cur) -
                                     400
                               : 64});

  ServiceOptions sopts;
  auto service =
      CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 42}, sopts);
  if (!service.ok()) {
    std::cerr << service.status().ToString() << "\n";
    return 1;
  }
  CoverageServerOptions options;
  options.http.port = 0;
  options.http.num_threads = 4;
  options.http.idle_timeout_ms = 600000;  // nothing parks out mid-bench
  options.http.max_pending = 0;           // the crowd is the workload
  options.http.backlog = 1024;
  CoverageServer server(std::move(*service), options);
  const coverage::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  int ready_pipe[2];
  int done_pipe[2];
  if (::pipe(ready_pipe) != 0 || ::pipe(done_pipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    std::cerr << "fork: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (child == 0) {
    ::close(ready_pipe[0]);
    ::close(done_pipe[1]);
    ChildHoldConnections(server.port(), idle_target, ready_pipe[1],
                         done_pipe[0]);
  }
  ::close(ready_pipe[1]);
  ::close(done_pipe[0]);

  std::uint64_t idle_connected = 0;
  if (::read(ready_pipe[0], &idle_connected, sizeof(idle_connected)) !=
      static_cast<ssize_t>(sizeof(idle_connected))) {
    std::cerr << "child failed to report\n";
    return 1;
  }
  // The loop accepts and primes asynchronously; wait for the gauge to
  // report every held connection before measuring through the crowd.
  const auto accept_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.http_stats().open_connections < idle_connected &&
         std::chrono::steady_clock::now() < accept_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("idle connections held by child: %llu (target %zu)\n",
              static_cast<unsigned long long>(idle_connected), idle_target);

  struct Workload {
    const char* name;
    const char* method;
    const char* target;
    std::string body;
  };
  const Workload workloads[] = {
      {"healthz", "GET", "/healthz", ""},
      {"query-1", "POST", "/v1/query", R"({"patterns": ["XXXX"]})"},
      {"audit", "POST", "/v1/audit", R"({"tau": 30})"},
  };
  const int clients = 4;
  const double seconds = FullScale() ? 5.0 : 2.0;

  BenchJson report("async_load");
  std::printf("%-10s %8s %12s %12s %10s %10s %9s\n", "workload", "clients",
              "requests", "req/s", "p50 (us)", "p99 (us)", "failures");
  for (const Workload& w : workloads) {
    const LoadResult r = RunClosedLoop(server.port(), clients, w.method,
                                       w.target, w.body, seconds);
    std::printf("%-10s %8d %12llu %12.0f %10.1f %10.1f %9llu\n", w.name,
                clients, static_cast<unsigned long long>(r.requests),
                r.throughput(), r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.failures));
    report.Row()
        .Field("workload", w.name)
        .Field("idle_connections", idle_connected)
        .Field("clients", clients)
        .Field("requests", r.requests)
        .Field("seconds", r.seconds)
        .Field("requests_per_second", r.throughput())
        .Field("p50_us", r.p50_us)
        .Field("p99_us", r.p99_us)
        .Field("failures", r.failures)
        .Done();
  }

  // Release the crowd and reap the child before the server tears down.
  char go = 'x';
  (void)!::write(done_pipe[1], &go, 1);
  ::close(done_pipe[1]);
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  server.Stop();
  if (idle_connected < idle_target / 2) {
    std::cerr << "held only " << idle_connected << " of " << idle_target
              << " connections\n";
    return 1;
  }
  return 0;
}
