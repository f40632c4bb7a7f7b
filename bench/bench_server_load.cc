// Closed-loop load test of coverage_server's full network stack: an
// in-process CoverageServer on an ephemeral loopback port, N client threads
// each running connect-once / request-reply-repeat over its own keep-alive
// connection. Every request crosses real sockets, real HTTP framing, and
// the real route table — the numbers are what an operator would see from a
// co-located client.
//
// Workloads:
//   query-1   POST /v1/query, one cached single-pattern exact count (the
//             cheapest request: measures wire + dispatch overhead)
//   query-16  POST /v1/query, a 16-pattern batch (amortised framing)
//   healthz   GET /healthz (no JSON decode: the transport floor)
//
// Emits BENCH_server_load.json with throughput and latency quantiles per
// (workload, client-thread-count) cell.

#include <algorithm>
#include <atomic>
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

/// Each client thread drives its own keep-alive connection flat out for
/// `seconds`, timestamping every roundtrip.
LoadResult RunClosedLoop(int port, int num_clients, const std::string& method,
                         const std::string& target, const std::string& body,
                         double seconds) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(num_clients));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(num_clients), 0);
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
          ++counts[static_cast<std::size_t>(c)];
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
  for (int c = 0; c < num_clients; ++c) {
    result.requests += counts[static_cast<std::size_t>(c)];
    all.insert(all.end(), latencies[static_cast<std::size_t>(c)].begin(),
               latencies[static_cast<std::size_t>(c)].end());
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

  Banner("coverage_server loopback load",
         "closed-loop clients, keep-alive, ephemeral port");

  ServiceOptions sopts;
  sopts.num_threads = 1;  // per-request worker cap; queries here are single
  auto service = CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 42},
                                           sopts);
  if (!service.ok()) {
    std::cerr << service.status().ToString() << "\n";
    return 1;
  }
  CoverageServerOptions options;
  options.http.port = 0;
  options.http.num_threads = 8;
  CoverageServer server(std::move(*service), options);
  const coverage::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  std::string batch16 = "{\"patterns\": [";
  for (int i = 0; i < 16; ++i) {
    batch16 += std::string(i > 0 ? ", " : "") + "\"" +
               (i % 2 == 0 ? "XXXX" : "0XXX") + "\"";
  }
  batch16 += "]}";

  struct Workload {
    const char* name;
    const char* method;
    const char* target;
    std::string body;
  };
  const Workload workloads[] = {
      {"query-1", "POST", "/v1/query", R"({"patterns": ["XXXX"]})"},
      {"query-16", "POST", "/v1/query", batch16},
      {"healthz", "GET", "/healthz", ""},
  };
  const std::vector<int> client_counts =
      FullScale() ? std::vector<int>{1, 2, 4, 8, 16}
                  : std::vector<int>{1, 2, 4};
  const double seconds = FullScale() ? 5.0 : 1.0;

  BenchJson report("server_load");
  std::printf("%-10s %8s %12s %12s %10s %10s %9s\n", "workload", "clients",
              "requests", "req/s", "p50 (us)", "p99 (us)", "failures");
  for (const Workload& w : workloads) {
    for (const int clients : client_counts) {
      const LoadResult r = RunClosedLoop(server.port(), clients, w.method,
                                         w.target, w.body, seconds);
      std::printf("%-10s %8d %12llu %12.0f %10.1f %10.1f %9llu\n", w.name,
                  clients, static_cast<unsigned long long>(r.requests),
                  r.throughput(), r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.failures));
      report.Row()
          .Field("workload", w.name)
          .Field("clients", clients)
          .Field("requests", r.requests)
          .Field("seconds", r.seconds)
          .Field("requests_per_second", r.throughput())
          .Field("p50_us", r.p50_us)
          .Field("p99_us", r.p99_us)
          .Field("failures", r.failures)
          .Done();
    }
  }
  server.Stop();
  return 0;
}
