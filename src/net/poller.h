#ifndef COVERAGE_NET_POLLER_H_
#define COVERAGE_NET_POLLER_H_

#include <memory>
#include <vector>

#include "common/status.h"

namespace coverage {
namespace net {

/// One readiness report from Poller::Wait. Error/hang-up conditions are
/// folded into both flags so whichever half of the connection state machine
/// is active (reading or flushing) observes the failure on its next
/// syscall, as a dead peer surfaces as a recv/send error there.
struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
};

/// Minimal readiness-notification abstraction behind the event loop:
/// epoll(7) on Linux, poll(2) everywhere else. Level-triggered on both
/// backends — the loop may leave bytes unread (backpressure while a request
/// is in flight) and be re-notified on the next Wait.
///
/// Not thread-safe; owned and driven by the loop thread only.
class Poller {
 public:
  virtual ~Poller() = default;

  /// Registers `fd` with the given interest set. An interest-less fd stays
  /// registered (epoll still reports errors/hang-ups for it).
  virtual Status Add(int fd, bool read, bool write) = 0;

  /// Replaces the interest set of a registered fd.
  virtual Status Mod(int fd, bool read, bool write) = 0;

  /// Deregisters `fd`. Safe to call right before close(2).
  virtual Status Del(int fd) = 0;

  /// Blocks up to `timeout_ms` (0 = poll-and-return). Clears `events` and
  /// fills it with the ready fds. Returns the event count, or -1 with errno
  /// set (EINTR included — the caller retries).
  virtual int Wait(int timeout_ms, std::vector<PollerEvent>* events) = 0;

  /// "epoll" or "poll"; surfaced in logs so deployments can confirm which
  /// backend they run.
  virtual const char* name() const = 0;

  /// The best backend for this platform.
  static std::unique_ptr<Poller> Create();
};

}  // namespace net
}  // namespace coverage

#endif  // COVERAGE_NET_POLLER_H_
