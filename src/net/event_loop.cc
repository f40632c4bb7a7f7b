#include "net/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/executor.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace coverage {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Which HTTP status a MessageReader rejection earns (431 oversized head,
/// 413 oversized body, 400 anything else).
int StatusToHttpParseError(const Status& status,
                           const http::MessageReader& reader) {
  if (status.code() == StatusCode::kResourceExhausted) {
    return reader.limit_violation() ==
                   http::MessageReader::LimitViolation::kHead
               ? 431
               : 413;
  }
  return 400;
}

ssize_t SendSome(int fd, const char* data, std::size_t n) {
#ifdef MSG_NOSIGNAL
  return ::send(fd, data, n, MSG_NOSIGNAL);
#else
  return ::send(fd, data, n, 0);
#endif
}

}  // namespace

EventLoop::EventLoop(EventLoopOptions options) : options_(std::move(options)) {}

EventLoop::~EventLoop() {
  Stop();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (!started_ && options_.listen_fd >= 0) ::close(options_.listen_fd);
}

Status EventLoop::Start() {
  if (started_) return Status::InvalidArgument("event loop already started");
  if (options_.listen_fd < 0) {
    return Status::InvalidArgument("event loop needs a listening socket");
  }
  if (!options_.handler) {
    return Status::InvalidArgument("event loop needs a handler");
  }
  poller_ = Poller::Create();

  int fds[2];
  if (::pipe(fds) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  Status added = poller_->Add(wake_read_fd_, /*read=*/true, /*write=*/false);
  if (added.ok()) {
    added = poller_->Add(options_.listen_fd, /*read=*/true, /*write=*/false);
  }
  if (!added.ok()) {
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
    return added;
  }
  listener_active_ = true;

  const int workers =
      options_.num_workers > 0 ? options_.num_workers : HardwareWorkers();
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  loop_thread_ = std::thread([this] { Run(); });
  started_ = true;
  obs::LogInfo("event_loop_started")
      .Str("poller", poller_->name())
      .Int("workers", workers);
  return Status::OK();
}

void EventLoop::Stop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  if (stop_state_ == StopState::kJoined) return;
  if (stop_state_ == StopState::kStopping) {
    stop_cv_.wait(lock, [&] { return stop_state_ == StopState::kJoined; });
    return;
  }
  stop_state_ = StopState::kStopping;
  lock.unlock();

  stop_requested_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> l(dispatch_mu_);
    workers_stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }

  lock.lock();
  stop_state_ = StopState::kJoined;
  stop_cv_.notify_all();
  lock.unlock();
}

void EventLoop::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  const char one = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &one, 1);
}

void EventLoop::DrainWakePipe() {
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::Run() {
  std::vector<PollerEvent> events;
  while (true) {
    const int timeout = NextTimeoutMs(Clock::now());
    const int n = poller_->Wait(timeout, &events);
    const auto start = Clock::now();
    if (n < 0 && errno != EINTR) {
      // A broken poller would otherwise spin; one tick of sleep turns it
      // into degraded service instead of a hot loop.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.poll_interval_ms));
    }
    if (stop_requested_.load(std::memory_order_acquire) && !stop_begun_) {
      BeginStop();
    }
    for (const PollerEvent& event : events) {
      if (event.fd == wake_read_fd_) {
        DrainWakePipe();
        continue;
      }
      if (event.fd == options_.listen_fd && listener_active_) {
        AcceptBatch();
        continue;
      }
      HandleConnEvent(event);
    }
    ProcessCompletions();
    FireTimers(Clock::now());
    if (stop_begun_ && conns_.empty()) break;
    if (options_.iteration_histogram != nullptr) {
      options_.iteration_histogram->Observe(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
  }
}

void EventLoop::BeginStop() {
  stop_begun_ = true;
  if (options_.listen_fd >= 0) {
    if (listener_active_) poller_->Del(options_.listen_fd);
    ::close(options_.listen_fd);
    options_.listen_fd = -1;
    listener_active_ = false;
  }
  // Idle connections close immediately (the clean keep-alive close point);
  // in-flight requests and unflushed responses drain first — the graceful
  // part of graceful shutdown.
  std::vector<int> idle;
  idle.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    if (!conn->in_flight && PendingOut(*conn) == 0) idle.push_back(fd);
  }
  for (const int fd : idle) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) CloseConn(*it->second);
  }
}

void EventLoop::AcceptBatch() {
  for (std::size_t accepted = 0; accepted < options_.max_accept_batch;) {
    if (!listener_active_ || options_.listen_fd < 0) return;
    const int listen_fd = options_.listen_fd;
    const int fd =
        options_.accept_fn
            ? options_.accept_fn(listen_fd)
#ifdef __linux__
            : ::accept4(listen_fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
            : ::accept(listen_fd, nullptr, nullptr);
#endif
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog drained
      // The connection died between readiness and accept: not our problem.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
      if (stop_requested_.load(std::memory_order_acquire)) return;
      // fd exhaustion (EMFILE/ENFILE), kernel memory pressure, or an
      // unanticipated errno must not stop the server: existing connections
      // will finish and free resources. Deregister the listener and re-arm
      // it one tick later, so the level-triggered poller doesn't spin on a
      // listener nobody can drain.
      const int saved_errno = errno;
      counters_.accept_retries.fetch_add(1, std::memory_order_relaxed);
      obs::LogWarn("accept_retry")
          .Str("error", std::strerror(saved_errno))
          .Int("errno", saved_errno)
          .Int("backoff_ms", options_.poll_interval_ms)
          .Uint("accept_retries",
                counters_.accept_retries.load(std::memory_order_relaxed));
      poller_->Del(listen_fd);
      listener_active_ = false;
      timers_.push({Clock::now() +
                        std::chrono::milliseconds(options_.poll_interval_ms),
                    -1, 0, Timer::kListenerResume});
      return;
    }
    ++accepted;
    SetNonBlocking(fd);  // accept_fn path; accept4 already did
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    if (options_.max_pending != 0 && fresh_pending_ >= options_.max_pending) {
      // Every slot is taken by a connection still waiting for its first
      // dispatch: shed now so the client learns immediately instead of
      // timing out behind work we can't drain.
      Shed(fd, "queue_full", 0.0);
      ::close(fd);
      continue;
    }
    CreateConn(fd);
  }
}

void EventLoop::CreateConn(int fd) {
  auto conn = std::make_unique<Conn>(options_.limits);
  conn->fd = fd;
  conn->gen = ++next_gen_;
  const auto now = Clock::now();
  conn->accepted_at = now;
  conn->idle_deadline =
      now + std::chrono::milliseconds(options_.idle_timeout_ms);
  conn->idle_armed = true;
  const Status added = poller_->Add(fd, /*read=*/true, /*write=*/false);
  if (!added.ok()) {
    ::close(fd);
    return;
  }
  timers_.push({conn->idle_deadline, fd, conn->gen, Timer::kIdle});
  ++fresh_pending_;
  conns_[fd] = std::move(conn);
  counters_.open_connections.store(conns_.size(), std::memory_order_relaxed);
}

void EventLoop::HandleConnEvent(const PollerEvent& event) {
  auto it = conns_.find(event.fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  const std::uint64_t gen = it->second->gen;
  if (event.writable && PendingOut(*it->second) > 0) {
    FlushAndAdvance(*it->second);
    it = conns_.find(event.fd);
    if (it == conns_.end() || it->second->gen != gen) return;
  }
  Conn& conn = *it->second;
  if (event.readable && conn.read_enabled && !conn.in_flight) {
    ReadConn(conn);
  }
}

void EventLoop::ReadConn(Conn& conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const Status fed = conn.reader.Feed(buf, static_cast<std::size_t>(n));
      if (!fed.ok()) {
        ProtocolError(conn, StatusToHttpParseError(fed, conn.reader),
                      fed.message());
        return;
      }
      if (conn.reader.HasMessage()) {
        // Read interest turns off inside: bytes of further pipelined
        // requests stay in the kernel buffer until this one is answered.
        DispatchNext(conn);
        return;
      }
      continue;
    }
    if (n == 0) {  // peer closed
      conn.peer_closed = true;
      if (!conn.reader.Empty()) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(conn);  // transport error; silent close
    return;
  }
}

void EventLoop::DispatchNext(Conn& conn) {
  const auto now = Clock::now();
  if (conn.fresh) {
    conn.fresh = false;
    --fresh_pending_;
    if (options_.max_queue_wait_ms > 0) {
      const double waited_seconds =
          std::chrono::duration<double>(now - conn.accepted_at).count();
      if (waited_seconds * 1e3 >
          static_cast<double>(options_.max_queue_wait_ms)) {
        // Accept -> first dispatch outwaited the deadline: the client has
        // likely given up, so tell it to retry rather than spend a worker
        // on a stale request.
        Shed(conn.fd, "stale", waited_seconds);
        CloseConn(conn);
        return;
      }
    }
  }
  auto request = conn.reader.TakeRequest();
  if (!request.ok()) {
    ProtocolError(conn, 400, request.status().message());
    return;
  }
  const bool keep_alive = conn.keep_alive && request->KeepAlive() &&
                          !stop_requested_.load(std::memory_order_acquire);
  conn.keep_alive = keep_alive;
  conn.in_flight = true;
  conn.idle_armed = false;
  SetInterest(conn, /*read=*/false, conn.want_write);
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    jobs_.push_back({conn.fd, conn.gen, std::move(*request), keep_alive});
  }
  dispatch_cv_.notify_one();
}

void EventLoop::WorkerMain() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock,
                        [&] { return workers_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const http::Response response = options_.handler(job.request);
    counters_.requests_handled.fetch_add(1, std::memory_order_relaxed);
    std::string bytes = http::SerializeResponse(response, job.keep_alive);
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(
          {job.fd, job.gen, std::move(bytes), job.keep_alive});
    }
    WakeLoop();
  }
}

void EventLoop::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = conns_.find(completion.fd);
    if (it == conns_.end() || it->second->gen != completion.gen) continue;
    Conn& conn = *it->second;
    conn.in_flight = false;
    conn.keep_alive = completion.keep_alive;
    if (!completion.keep_alive) conn.close_after_flush = true;
    conn.out.append(completion.bytes);
    counters_.write_buffer_bytes.fetch_add(completion.bytes.size(),
                                           std::memory_order_relaxed);
    FlushAndAdvance(conn);
  }
}

EventLoop::FlushResult EventLoop::FlushAndAdvance(Conn& conn) {
  while (PendingOut(conn) > 0) {
    const ssize_t n =
        SendSome(conn.fd, conn.out.data() + conn.out_off, PendingOut(conn));
    if (n >= 0) {
      conn.out_off += static_cast<std::size_t>(n);
      counters_.write_buffer_bytes.fetch_sub(static_cast<std::size_t>(n),
                                             std::memory_order_relaxed);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Socket buffer full: park on writability (backpressure) and keep
      // the remaining bytes buffered.
      SetInterest(conn, conn.read_enabled, /*write=*/true);
      return FlushResult::kBlocked;
    }
    CloseConn(conn);  // peer gone mid-response
    return FlushResult::kClosed;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) SetInterest(conn, conn.read_enabled, /*write=*/false);
  if (conn.close_after_flush) {
    CloseConn(conn);
    return FlushResult::kClosed;
  }
  if (conn.in_flight) return FlushResult::kDrained;
  if (stop_begun_ || stop_requested_.load(std::memory_order_acquire)) {
    // Response delivered during shutdown: this is the clean close point of
    // a draining keep-alive connection.
    CloseConn(conn);
    return FlushResult::kClosed;
  }
  // A fully buffered pipelined request may already be waiting.
  const Status pumped = conn.reader.Pump();
  if (!pumped.ok()) {
    ProtocolError(conn, StatusToHttpParseError(pumped, conn.reader),
                  pumped.message());
    return FlushResult::kClosed;
  }
  if (conn.reader.HasMessage()) {
    DispatchNext(conn);
    return FlushResult::kDrained;
  }
  // Back to waiting for the next request: fresh idle budget, read back on.
  SetInterest(conn, /*read=*/true, /*write=*/false);
  conn.idle_deadline =
      Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
  conn.idle_armed = true;
  timers_.push({conn.idle_deadline, conn.fd, conn.gen, Timer::kIdle});
  return FlushResult::kDrained;
}

void EventLoop::ProtocolError(Conn& conn, int status,
                              const std::string& detail) {
  http::Response response = http::Response::Text(status, detail + "\n");
  const std::string bytes =
      http::SerializeResponse(response, /*keep_alive=*/false);
  conn.out.append(bytes);
  counters_.write_buffer_bytes.fetch_add(bytes.size(),
                                         std::memory_order_relaxed);
  counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  conn.close_after_flush = true;
  conn.idle_armed = false;
  SetInterest(conn, /*read=*/false, conn.want_write);
  FlushAndAdvance(conn);
}

void EventLoop::Shed(int fd, const char* reason, double waited_seconds) {
  counters_.connections_shed.fetch_add(1, std::memory_order_relaxed);
  obs::LogWarn("connection_shed")
      .Str("reason", reason)
      .Uint("queue_depth", fresh_pending_)
      .Uint("max_pending", options_.max_pending)
      .Int("retry_after_seconds", options_.retry_after_seconds)
      .Double("waited_seconds", waited_seconds)
      .Uint("connections_shed",
            counters_.connections_shed.load(std::memory_order_relaxed));
  // Best-effort: the canned 503 is tiny next to a fresh socket buffer, so
  // it virtually always sends whole; a failure means the peer is gone and
  // the close below is answer enough.
  std::size_t sent = 0;
  while (sent < options_.shed_response.size()) {
    const ssize_t n = SendSome(fd, options_.shed_response.data() + sent,
                               options_.shed_response.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void EventLoop::SetInterest(Conn& conn, bool read, bool write) {
  if (conn.read_enabled == read && conn.want_write == write) return;
  conn.read_enabled = read;
  conn.want_write = write;
  poller_->Mod(conn.fd, read, write);
}

void EventLoop::CloseConn(Conn& conn) {
  const int fd = conn.fd;
  poller_->Del(fd);
  counters_.write_buffer_bytes.fetch_sub(PendingOut(conn),
                                         std::memory_order_relaxed);
  if (conn.fresh) --fresh_pending_;
  ::close(fd);
  conns_.erase(fd);
  counters_.open_connections.store(conns_.size(), std::memory_order_relaxed);
}

void EventLoop::FireTimers(Clock::time_point now) {
  while (!timers_.empty() && timers_.top().when <= now) {
    const Timer timer = timers_.top();
    timers_.pop();
    switch (timer.kind) {
      case Timer::kIdle: {
        const auto it = conns_.find(timer.fd);
        if (it == conns_.end() || it->second->gen != timer.gen) break;
        Conn& conn = *it->second;
        if (!conn.idle_armed) break;
        if (conn.idle_deadline > now) {
          // The deadline moved (a response re-armed it); chase it lazily.
          timers_.push({conn.idle_deadline, timer.fd, timer.gen, Timer::kIdle});
          break;
        }
        if (!conn.reader.Empty()) {
          ProtocolError(conn, 408, "request timed out");
        } else {
          CloseConn(conn);  // silent close of an idle keep-alive connection
        }
        break;
      }
      case Timer::kListenerResume: {
        if (!stop_begun_ && options_.listen_fd >= 0 && !listener_active_) {
          poller_->Add(options_.listen_fd, /*read=*/true, /*write=*/false);
          listener_active_ = true;
        }
        break;
      }
    }
  }
}

int EventLoop::NextTimeoutMs(Clock::time_point now) const {
  int timeout = options_.poll_interval_ms;
  if (!timers_.empty()) {
    // Round up: a deadline 0.9 ms away must sleep 1 ms, not poll(0) in a
    // busy loop until the deadline arrives.
    const auto until =
        std::chrono::ceil<std::chrono::milliseconds>(timers_.top().when - now)
            .count();
    if (until < timeout) timeout = until < 0 ? 0 : static_cast<int>(until);
  }
  return timeout;
}

}  // namespace net
}  // namespace coverage
