#include "server/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <utility>

#include "net/event_loop.h"

namespace coverage {
namespace http {

namespace {

/// The one server wired to SIGINT/SIGTERM, and the flag its handler sets.
/// Signal handlers may only touch lock-free atomics, so the handler records
/// the request and Wait() (which polls anyway) acts on it.
std::atomic<HttpServer*> g_signal_server{nullptr};
volatile std::sig_atomic_t g_signal_stop = 0;

void OnStopSignal(int) { g_signal_stop = 1; }

}  // namespace

Status ServerOptions::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be within [0, 65535]");
  }
  if (num_threads < 0 || num_threads > 1024) {
    return Status::InvalidArgument(
        "num_threads must be within [0, 1024] (0 = hardware concurrency)");
  }
  if (max_body_bytes == 0 || max_head_bytes == 0) {
    return Status::InvalidArgument("size limits must be positive");
  }
  if (backlog < 1) {
    return Status::InvalidArgument("backlog must be positive");
  }
  if (idle_timeout_ms < 1 || poll_interval_ms < 1) {
    return Status::InvalidArgument("timeouts must be positive");
  }
  if (max_queue_wait_ms < 0 || retry_after_seconds < 1) {
    return Status::InvalidArgument(
        "max_queue_wait_ms must be >= 0 and retry_after_seconds positive");
  }
  return Status::OK();
}

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() {
  Stop();
  if (g_signal_server.load(std::memory_order_acquire) == this) {
    g_signal_server.store(nullptr, std::memory_order_release);
  }
}

Status HttpServer::Start() {
  COVERAGE_RETURN_IF_ERROR(options_.Validate());
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd);
    return st;
  }
  if (::listen(listen_fd, options_.backlog) < 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);

  Response shed = Response::Text(503, "server overloaded, retry shortly\n");
  shed.headers.push_back(
      {"Retry-After", std::to_string(options_.retry_after_seconds)});

  net::EventLoopOptions loop_options;
  loop_options.listen_fd = listen_fd;
  loop_options.handler = handler_;
  loop_options.limits.max_head_bytes = options_.max_head_bytes;
  loop_options.limits.max_body_bytes = options_.max_body_bytes;
  loop_options.num_workers = options_.num_threads;
  loop_options.idle_timeout_ms = options_.idle_timeout_ms;
  loop_options.poll_interval_ms = options_.poll_interval_ms;
  loop_options.max_pending = options_.max_pending;
  loop_options.max_queue_wait_ms = options_.max_queue_wait_ms;
  loop_options.retry_after_seconds = options_.retry_after_seconds;
  loop_options.accept_fn = options_.accept_fn;
  loop_options.shed_response = SerializeResponse(shed, /*keep_alive=*/false);
  loop_options.iteration_histogram = options_.loop_latency_histogram;
  loop_ = std::make_unique<net::EventLoop>(std::move(loop_options));
  const Status started = loop_->Start();
  if (!started.ok()) {
    // The loop owns (and on failure, its destructor closes) listen_fd.
    loop_.reset();
    return started;
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_joined_ = false;
  }
  return Status::OK();
}

void HttpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    Wait();
    return;
  }
  // The loop owns the listener and every connection and drains them
  // gracefully (in-flight requests finish, responses flush) before its
  // threads join inside Stop().
  if (loop_ != nullptr) loop_->Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_joined_ = true;
  }
  running_.store(false, std::memory_order_release);
  stopped_cv_.notify_all();
}

void HttpServer::Wait() {
  const auto tick = std::chrono::milliseconds(options_.poll_interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_cv_.wait_for(lock, tick, [&] { return threads_joined_; })) {
        return;
      }
    }
    // A signal-requested stop runs here, on the waiter's thread — never on
    // a thread Stop() would have to join.
    if (g_signal_stop != 0 &&
        g_signal_server.load(std::memory_order_acquire) == this &&
        !stopping_.load(std::memory_order_acquire)) {
      Stop();
      return;
    }
  }
}

void HttpServer::StopOnSignal() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = OnStopSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
#ifdef SIGPIPE
  ::signal(SIGPIPE, SIG_IGN);  // broken clients must not kill the process
#endif
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  if (loop_ == nullptr) return s;
  const net::EventLoopCounters& c = loop_->counters();
  s.connections_accepted =
      c.connections_accepted.load(std::memory_order_relaxed);
  s.requests_handled = c.requests_handled.load(std::memory_order_relaxed);
  s.protocol_errors = c.protocol_errors.load(std::memory_order_relaxed);
  s.connections_shed = c.connections_shed.load(std::memory_order_relaxed);
  s.accept_retries = c.accept_retries.load(std::memory_order_relaxed);
  s.open_connections = c.open_connections.load(std::memory_order_relaxed);
  s.write_buffer_bytes = c.write_buffer_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace http
}  // namespace coverage
