#ifndef COVERAGE_NET_EVENT_LOOP_H_
#define COVERAGE_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/poller.h"
#include "server/http.h"

namespace coverage {

namespace obs {
class Histogram;
}  // namespace obs

namespace net {

/// Everything the readiness loop needs, fixed at Start(). The option names
/// mirror http::ServerOptions, which HttpServer maps onto this struct.
struct EventLoopOptions {
  /// Listening socket, already bound + listening + nonblocking. The loop
  /// takes ownership and closes it during shutdown.
  int listen_fd = -1;

  std::function<http::Response(const http::Request&)> handler;

  http::MessageReader::Limits limits;

  /// Dispatch worker threads (handlers only — all socket I/O stays on the
  /// loop thread). 0 means HardwareWorkers().
  int num_workers = 4;

  int idle_timeout_ms = 30000;
  int poll_interval_ms = 50;

  /// Overload protection: connections whose first request has not yet
  /// been dispatched count as "pending"; at `max_pending` of them, new
  /// accepts are shed with the canned 503. 0 = unbounded.
  std::size_t max_pending = 256;

  /// A connection whose *first* request dispatches later than this after
  /// accept is shed as stale (its client has likely given up). Measured
  /// accept -> first dispatch. 0 disables.
  int max_queue_wait_ms = 0;

  int retry_after_seconds = 1;

  /// Upper bound on accepts drained per listener readiness, so one accept
  /// storm cannot starve established connections of loop time.
  std::size_t max_accept_batch = 64;

  /// Test seam, same contract as ServerOptions::accept_fn. The listener is
  /// nonblocking, so a real accept(2) behind the seam returns EAGAIN when
  /// the backlog is drained — which the loop treats as "batch done".
  std::function<int(int)> accept_fn;

  /// Pre-serialized 503 + Retry-After, built once by HttpServer.
  std::string shed_response;

  /// When set, observes seconds spent per loop iteration (wake to sleep,
  /// wait excluded) — the "is the loop thread the bottleneck" signal.
  obs::Histogram* iteration_histogram = nullptr;
};

/// Counters the loop maintains; HttpServer::stats() snapshots them into
/// ServerStats field-for-field.
struct EventLoopCounters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_handled{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> connections_shed{0};
  std::atomic<std::uint64_t> accept_retries{0};
  std::atomic<std::uint64_t> open_connections{0};
  std::atomic<std::uint64_t> write_buffer_bytes{0};
};

/// An epoll (poll fallback) readiness loop serving HTTP/1.1: the transport
/// behind HttpServer. Keep-alive connections cost a socket and a small
/// state machine, not a thread, so tens of thousands can stay open.
///
/// Threading model: ONE loop thread owns every socket and all connection
/// state (no locks on the hot path); `num_workers` dispatch threads run
/// only the request handler and response serialization, handing finished
/// responses back through a completion queue + wakeup pipe. While a
/// request is in flight its connection's read interest is off, so a slow
/// handler applies backpressure instead of unbounded buffering; writes
/// that overrun the socket buffer park the connection on EPOLLOUT.
///
/// Deadlines (idle/408 timeouts, listener backoff re-arm) live in a lazy
/// min-heap keyed by {fd, generation}: entries are never removed eagerly,
/// just revalidated when they pop. The loop thread does no work of its own
/// beyond socket I/O; slow housekeeping (the session reaper) belongs on
/// its owner's thread.
class EventLoop {
 public:
  explicit EventLoop(EventLoopOptions options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread + workers. Call at most once.
  Status Start();

  /// Graceful drain: stop accepting, close idle connections, let in-flight
  /// requests finish and their responses flush, then join every thread.
  /// Idempotent and safe from any thread; blocks until fully joined.
  void Stop();

  const EventLoopCounters& counters() const { return counters_; }

 private:
  /// Per-connection state machine. Owned by the loop thread exclusively;
  /// workers refer to a connection only by {fd, generation}.
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    http::MessageReader reader;
    std::string out;            // serialized bytes awaiting send
    std::size_t out_off = 0;
    bool want_write = false;    // registered for writability
    bool read_enabled = true;   // registered for readability
    bool in_flight = false;     // a request is with a worker
    bool keep_alive = true;     // monotonic: once false, stays false
    bool close_after_flush = false;
    bool peer_closed = false;
    /// Counted against max_pending until the first request dispatches.
    bool fresh = true;
    std::chrono::steady_clock::time_point accepted_at;
    /// Wall-clock deadline for assembling the *current* request — armed at
    /// accept and re-armed after each flushed response, never extended by
    /// partial bytes (slowloris guard: a per-request idle budget).
    std::chrono::steady_clock::time_point idle_deadline;
    bool idle_armed = true;

    explicit Conn(http::MessageReader::Limits limits) : reader(limits) {}
  };

  struct Job {
    int fd;
    std::uint64_t gen;
    http::Request request;
    bool keep_alive;  // decided at dispatch
  };

  struct Completion {
    int fd;
    std::uint64_t gen;
    std::string bytes;  // fully serialized response
    bool keep_alive;
  };

  struct Timer {
    std::chrono::steady_clock::time_point when;
    int fd;             // -1 for the listener timer
    std::uint64_t gen;  // connection generation for kIdle
    enum Kind { kIdle, kListenerResume } kind;
    bool operator>(const Timer& o) const { return when > o.when; }
  };

  enum class FlushResult { kDrained, kBlocked, kClosed };

  void Run();
  void WorkerMain();
  void WakeLoop();
  void DrainWakePipe();
  void ProcessCompletions();
  void AcceptBatch();
  void CreateConn(int fd);
  void HandleConnEvent(const PollerEvent& event);
  void ReadConn(Conn& conn);
  void DispatchNext(Conn& conn);
  /// Appends the canned protocol-error response, bumps the counter, and
  /// closes once flushed.
  void ProtocolError(Conn& conn, int status, const std::string& detail);
  /// 503 + Retry-After for a connection that never reached a dispatch,
  /// logged as a structured `connection_shed` event; the caller closes.
  void Shed(int fd, const char* reason, double waited_seconds);
  /// Writes as much pending output as the socket accepts, then advances
  /// the state machine (close / wait for writability / next request).
  FlushResult FlushAndAdvance(Conn& conn);
  void SetInterest(Conn& conn, bool read, bool write);
  void CloseConn(Conn& conn);
  void BeginStop();
  void FireTimers(std::chrono::steady_clock::time_point now);
  int NextTimeoutMs(std::chrono::steady_clock::time_point now) const;
  std::size_t PendingOut(const Conn& conn) const {
    return conn.out.size() - conn.out_off;
  }

  EventLoopOptions options_;
  std::unique_ptr<Poller> poller_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool listener_active_ = false;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> stop_requested_{false};
  bool stop_begun_ = false;  // loop thread only

  /// Loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_gen_ = 0;
  std::size_t fresh_pending_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;

  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<Job> jobs_;
  bool workers_stop_ = false;

  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  enum class StopState { kRunning, kStopping, kJoined } stop_state_ =
      StopState::kRunning;
  bool started_ = false;

  EventLoopCounters counters_;
};

}  // namespace net
}  // namespace coverage

#endif  // COVERAGE_NET_EVENT_LOOP_H_
