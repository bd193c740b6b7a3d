#include "io/reactor.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "fuzz/hooks.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <ctime>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#endif

#include "arch/panic.h"
#include "arch/sysio.h"
#include "arch/wakeport.h"
#include "metrics/metrics.h"

namespace mp::io {

namespace {

// A proc that lost the single-poller race naps briefly instead of stacking
// up inside the kernel demultiplexer; the winner (or a notify) produces
// the actual wakeups.
constexpr double kLoserNapUs = 200;

constexpr unsigned kReadMask = static_cast<unsigned>(Interest::kRead);
constexpr unsigned kWriteMask = static_cast<unsigned>(Interest::kWrite);
constexpr unsigned kBothMask = kReadMask | kWriteMask;

timespec to_timespec(double us) {
  if (us < 0) us = 0;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(us / 1e6);
  ts.tv_nsec =
      static_cast<long>((us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  return ts;
}

short to_poll_events(unsigned mask) {
  short ev = 0;
  if (mask & kReadMask) ev |= POLLIN;
  if (mask & kWriteMask) ev |= POLLOUT;
  return ev;
}

unsigned from_poll_events(short ev) {
  unsigned mask = 0;
  if (ev & (POLLIN | POLLPRI)) mask |= kReadMask;
  if (ev & POLLOUT) mask |= kWriteMask;
  // Errors and hangups wake every waiter: the next syscall reports the
  // condition to whichever side retries.
  if (ev & (POLLERR | POLLHUP | POLLNVAL)) mask |= kBothMask;
  return mask;
}

}  // namespace

// ----- construction / teardown -----

Reactor::Reactor(threads::Scheduler& sched, ReactorConfig cfg)
    : sched_(sched), plat_(sched.platform()), cfg_(cfg) {
  lock_ = plat_.mutex_lock();
  wake_ = std::make_shared<arch::WakePort>();
  wake_->open();
#ifdef __linux__
  if (!cfg_.force_poll) {
    epfd_ = arch::check_sys("epoll_create1",
                            [] { return ::epoll_create1(EPOLL_CLOEXEC); });
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_->rfd();
    arch::check_sys("epoll_ctl", [&] {
      return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_->rfd(), &ev);
    });
    use_epoll_ = true;
  }
#endif
  // The hook holds the port (not the Reactor) by shared_ptr, so a ticker
  // thread caught mid-invocation during our destruction stays safe.
  plat_.set_wake_hook([port = wake_] { port->signal(); });
  sched_.set_idle_waiter(this);
}

Reactor::~Reactor() {
  sched_.set_idle_waiter(nullptr);  // quiesces concurrent dispatch loops
  plat_.set_wake_hook(nullptr);
  // Fire any still-parked waiters so no thread is stranded; their owners
  // re-poll and observe closed streams.
  std::vector<std::function<void()>> fires;
  plat_.lock(lock_);
  for (auto& [fd, e] : fds_) {
    for (auto& w : e.waiters) fires.push_back(std::move(w.fire));
  }
  fds_.clear();
  armed_fds_.store(0, std::memory_order_release);
  plat_.unlock(lock_);
  for (auto& f : fires) f();
  if (epfd_ >= 0) ::close(epfd_);
}

// ----- registration -----

void Reactor::rearm(int fd, FdEntry& e) {
  unsigned want = 0;
  for (const Waiter& w : e.waiters) want |= w.mask;
  if (want == e.armed) return;
  const unsigned old = e.armed;
  e.armed = want;
  if (old == 0 && want != 0) {
    armed_fds_.fetch_add(1, std::memory_order_acq_rel);
  } else if (old != 0 && want == 0) {
    armed_fds_.fetch_sub(1, std::memory_order_acq_rel);
  }
#ifdef __linux__
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = (want & kReadMask ? EPOLLIN | EPOLLRDHUP : 0u) |
                (want & kWriteMask ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    const int op = want == 0  ? EPOLL_CTL_DEL
                   : old == 0 ? EPOLL_CTL_ADD
                              : EPOLL_CTL_MOD;
    const int rc =
        arch::retry_eintr([&] { return ::epoll_ctl(epfd_, op, fd, &ev); });
    if (rc < 0 && op == EPOLL_CTL_ADD && errno == EPERM) {
      // Not pollable (a regular file): report as permanently ready by
      // leaving it unarmed; the caller fires waiters immediately.
      e.armed = 0;
      armed_fds_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (rc < 0 && !(op == EPOLL_CTL_DEL && errno == EBADF)) {
      arch::raise_errno("epoll_ctl", errno);
    }
    return;
  }
#endif
  // poll(2) backend: the fd set is rebuilt each pass; kick a poller that
  // may be blocked on the stale set.
  if (want & ~old) wake_->signal();
}

void Reactor::add_waiter(int fd, Interest interest, std::function<void()> fire,
                         std::function<bool()> dead) {
  const unsigned mask = static_cast<unsigned>(interest);
  std::vector<Waiter> pruned;  // destroyed after the unlock (see take_dead)
  plat_.lock(lock_);
  FdEntry& e = fds_[fd];
  detail::take_dead(e.waiters, pruned);
  e.waiters.push_back(Waiter{mask, std::move(fire), std::move(dead)});
  rearm(fd, e);
  if (e.armed == 0) {
    // Unpollable fd (see rearm): fire now rather than never.
    Waiter w = std::move(e.waiters.back());
    e.waiters.pop_back();
    if (e.waiters.empty()) fds_.erase(fd);
    plat_.unlock(lock_);
    w.fire();
    return;
  }
  plat_.unlock(lock_);
}

void Reactor::wait_fd(int fd, Interest interest) {
  MPNJ_METRIC_COUNT(kIoParked, 1);
#if MPNJ_METRICS
  const double parked_at = plat_.now_us();
#endif
  sched_.suspend([&](threads::ThreadState t) {
    add_waiter(fd, interest,
               [this, t]() mutable { sched_.reschedule(std::move(t)); });
  });
#if MPNJ_METRICS
  const double waited = plat_.now_us() - parked_at;
  MPNJ_METRIC_RECORD(kIoWaitUs,
                     waited > 0 ? static_cast<std::uint64_t>(waited) : 0);
#endif
}

void Reactor::forget_fd(int fd) {
  std::vector<std::function<void()>> fires;
  plat_.lock(lock_);
  auto it = fds_.find(fd);
  if (it != fds_.end()) {
    for (auto& w : it->second.waiters) fires.push_back(std::move(w.fire));
    it->second.waiters.clear();
    rearm(fd, it->second);
    fds_.erase(it);
  }
  plat_.unlock(lock_);
  for (auto& f : fires) f();
}

// ----- demultiplexing -----

int Reactor::collect_epoll(double timeout_us, std::vector<Ready>& out) {
#ifdef __linux__
  epoll_event evs[64];
  int n;
  if (timeout_us <= 0) {
    n = ::epoll_wait(epfd_, evs, 64, 0);
  } else {
#ifdef SYS_epoll_pwait2
    timespec ts = to_timespec(timeout_us);
    n = static_cast<int>(::syscall(SYS_epoll_pwait2, epfd_, evs, 64, &ts,
                                   nullptr, static_cast<std::size_t>(0)));
#else
    const int ms = static_cast<int>((timeout_us + 999) / 1000);
    n = ::epoll_wait(epfd_, evs, 64, std::max(ms, 1));
#endif
  }
  if (n < 0) {
    if (errno == EINTR) return 0;  // treat as a spurious wake, stay bounded
    arch::raise_errno("epoll_wait", errno);
  }
  for (int i = 0; i < n; i++) {
    if (evs[i].data.fd == wake_->rfd()) {
      wake_->acknowledge();
      continue;
    }
    unsigned mask = 0;
    if (evs[i].events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP)) mask |= kReadMask;
    if (evs[i].events & EPOLLOUT) mask |= kWriteMask;
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) mask |= kBothMask;
    out.push_back(Ready{evs[i].data.fd, mask});
  }
  return n;
#else
  (void)timeout_us;
  (void)out;
  arch::panic("epoll backend on a non-Linux build");
#endif
}

int Reactor::collect_poll(double timeout_us, std::vector<Ready>& out) {
  std::vector<pollfd> pfds;
  pfds.push_back(pollfd{wake_->rfd(), POLLIN, 0});
  plat_.lock(lock_);
  for (const auto& [fd, e] : fds_) {
    if (e.armed != 0) pfds.push_back(pollfd{fd, to_poll_events(e.armed), 0});
  }
  plat_.unlock(lock_);
  timespec ts = to_timespec(timeout_us);
  const int n = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return 0;
    arch::raise_errno("ppoll", errno);
  }
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    if (p.fd == wake_->rfd()) {
      wake_->acknowledge();
      continue;
    }
    out.push_back(Ready{p.fd, from_poll_events(p.revents)});
  }
  return n;
}

int Reactor::fire_ready(const std::vector<Ready>& ready) {
  if (ready.empty()) return 0;
  // Fuzz choice point: the rotation applied to the ready batch.  The OS
  // (or the sim's virtual ports) hands events in an arbitrary order, so
  // permuting the dispatch order explores schedules the kernel could have
  // produced.
  const std::size_t rot =
      fuzz::pick(fuzz::Kind::kIoOrder, ready.size(), 0);
  std::vector<std::function<void()>> fires;
  plat_.lock(lock_);
  for (std::size_t i = 0; i < ready.size(); i++) {
    const Ready& r = ready[(i + rot) % ready.size()];
    auto it = fds_.find(r.fd);
    if (it == fds_.end()) continue;  // raced with forget_fd
    FdEntry& e = it->second;
    auto keep = e.waiters.begin();
    for (auto& w : e.waiters) {
      if (w.mask & r.mask) {
        fires.push_back(std::move(w.fire));
      } else {
        *keep++ = std::move(w);
      }
    }
    e.waiters.erase(keep, e.waiters.end());
    rearm(r.fd, e);
    if (e.waiters.empty()) fds_.erase(it);
  }
  plat_.unlock(lock_);
  // Waiter callbacks run outside the reactor lock (they enqueue on the
  // scheduler's ready queues / commit CML offers).
  for (auto& f : fires) f();
  const int fired = static_cast<int>(fires.size());
  if (fired > 0) {
    MPNJ_METRIC_COUNT(kIoWakeups, static_cast<std::uint64_t>(fired));
    MPNJ_METRIC_COUNT(kIoDispatchBatches, 1);
    MPNJ_METRIC_RECORD(kIoBatchWakeups, static_cast<std::uint64_t>(fired));
  }
  return fired;
}

int Reactor::drive(double timeout_us) {
  std::vector<Ready> ready;
  if (use_epoll_) {
    collect_epoll(timeout_us, ready);
  } else {
    collect_poll(timeout_us, ready);
  }
  return fire_ready(ready);
}

// ----- threads::IdleWaiter -----

int Reactor::poll() {
  if (armed_fds_.load(std::memory_order_acquire) == 0) return 0;
  bool expected = false;
  if (!polling_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return 0;  // the current poller reports readiness itself
  }
  const int fired = drive(0);
  polling_.store(false, std::memory_order_release);
  return fired;
}

int Reactor::wait(double max_us) {
  plat_.safe_point();
  if (wake_->consume()) {
    return 0;  // consumed an external kick; caller re-checks its queues
  }
  bool expected = false;
  if (!polling_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // Fallback only: the scheduler's reactor election admits one proc at a
    // time, so this race is confined to direct callers outside the
    // election (tests, the destructor's quiesce kicks).
    plat_.idle_wait(std::min(max_us, kLoserNapUs));
    return 0;
  }
  const int fired = drive(std::min(max_us, cfg_.max_wait_us));
  polling_.store(false, std::memory_order_release);
  plat_.safe_point();
  return fired;
}

void Reactor::notify() {
  MPNJ_METRIC_COUNT(kIoNotifies, 1);
  wake_->signal();
}

}  // namespace mp::io
