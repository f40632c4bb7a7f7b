#ifndef COVERAGE_SERVER_HTTP_SERVER_H_
#define COVERAGE_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "server/http.h"

namespace coverage {

namespace net {
class EventLoop;
}  // namespace net

namespace obs {
class Histogram;
}  // namespace obs

namespace http {

/// Knobs of the embedded server. Everything is fixed at Start().
struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port() — the
  /// pattern every loopback test uses).
  int port = 0;

  /// Dispatch workers that run the request handler. All socket I/O stays
  /// on the one event-loop thread, so this bounds concurrent requests, not
  /// open connections. 0 clamps to hardware_concurrency() (the ThreadPool
  /// contract).
  int num_threads = 4;

  /// Hard bounds enforced while buffering, before any parsing work.
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  std::size_t max_head_bytes = 16 * 1024;

  /// listen(2) backlog: connections the kernel holds until the loop
  /// accepts them.
  int backlog = 128;

  /// Wall-clock budget for assembling each request, re-armed after every
  /// response: a keep-alive connection silent this long is closed, and one
  /// that stalls mid-request gets 408 (slowloris guard).
  int idle_timeout_ms = 30000;

  /// Longest the event loop sleeps between iterations, the accept backoff
  /// after EMFILE and friends, and how often Wait() checks for a stop
  /// signal.
  int poll_interval_ms = 50;

  /// Overload protection: once this many accepted connections still wait
  /// for their first request to be dispatched, new connections are shed
  /// immediately with `503 Service Unavailable` + `Retry-After` instead of
  /// queueing unboundedly behind slow work. 0 = unbounded.
  std::size_t max_pending = 256;

  /// A connection whose first request dispatches later than this after
  /// accept is shed with 503 — its client has likely given up, and serving
  /// it would only delay fresher requests. 0 disables the deadline.
  int max_queue_wait_ms = 0;

  /// Retry-After value (seconds) attached to shed responses.
  int retry_after_seconds = 1;

  /// Test seam: when set, called instead of accept(2); must behave like
  /// accept(listen_fd, nullptr, nullptr) including errno on failure.
  std::function<int(int)> accept_fn;

  /// When set, observes seconds per event-loop iteration.
  obs::Histogram* loop_latency_histogram = nullptr;

  Status Validate() const;
};

/// Counters surfaced by /v1/stats (monotonic since Start()).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_handled = 0;
  std::uint64_t protocol_errors = 0;  ///< connections dropped on bad HTTP
  std::uint64_t connections_shed = 0;  ///< 503s from overload protection
  std::uint64_t accept_retries = 0;    ///< transient accept(2) failures
  std::uint64_t open_connections = 0;   ///< currently established sockets
  std::uint64_t write_buffer_bytes = 0; ///< unflushed response bytes
};

/// A dependency-free HTTP/1.1 server: one event-loop thread owns every
/// socket (src/net/EventLoop) and hands complete requests to a pool of
/// dispatch workers.
///
///   HttpServer server(options, [](const Request& r) { ... return resp; });
///   server.Start();          // binds, spawns the loop + workers
///   ...
///   server.Stop();           // graceful: drain, close, join
///
/// The handler runs on a worker thread, one call at a time per connection
/// but many connections concurrently — it must be thread-safe. Keep-alive
/// (HTTP/1.1 default) and pipelined requests are honoured; bodies are
/// framed by Content-Length (no chunked encoding, no TLS — put a real
/// proxy in front for the open internet; this server is for trusted
/// networks and loopback).
///
/// Stop() (and therefore the destructor) is graceful: the listener closes
/// first, idle keep-alive connections close, in-flight requests finish and
/// their responses flush, then all threads join. StopOnSignal() arranges
/// the same for SIGINT/SIGTERM via Wait(), so ^C on the coverage_server
/// binary never truncates a response mid-write.
class HttpServer {
 public:
  using Handler = std::function<Response(const Request&)>;

  HttpServer(ServerOptions options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts serving. InvalidArgument on bad options, Internal on
  /// socket failures (port in use, ...).
  Status Start();

  /// Graceful shutdown; idempotent, safe from any thread (and from the
  /// signal watcher). Blocks until every thread joined.
  void Stop();

  /// Blocks until Stop() completes (from any caller).
  void Wait();

  /// Installs a process-wide SIGINT/SIGTERM handler that stops this server.
  /// Call after Start(); one server per process may use it.
  void StopOnSignal();

  /// Late injection of ServerOptions::loop_latency_histogram, for owners
  /// whose metrics registry outlives option construction (CoverageServer).
  /// Must be called before Start().
  void set_loop_latency_histogram(obs::Histogram* histogram) {
    options_.loop_latency_histogram = histogram;
  }

  /// The bound port (after Start(); ephemeral requests resolve here).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  ServerOptions options_;
  Handler handler_;

  /// The readiness loop owning the listener and every connection; null
  /// before Start().
  std::unique_ptr<net::EventLoop> loop_;
  int port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable stopped_cv_;
  bool threads_joined_ = true;
};

}  // namespace http
}  // namespace coverage

#endif  // COVERAGE_SERVER_HTTP_SERVER_H_
