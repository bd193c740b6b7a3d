#include "io/stream.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "arch/panic.h"
#include "arch/sysio.h"
#include "metrics/metrics.h"

namespace mp::io {

namespace {

// Virtual-time charge per byte moved through a virtual pipe (native
// backends turn this into a no-op beyond the safe point; the simulator
// advances its clock, modelling copy bandwidth).
constexpr double kPipeInstrPerByte = 0.25;

// ----- virtual pipes -----

// Shared state of one pipe: a bounded byte ring plus its parked offers.
// All transitions happen under the platform lock; offers are taken inside
// and fired after unlock (reschedule takes the scheduler's queue locks).
struct PipeCore {
  threads::Scheduler& sched;
  Platform& plat;
  MutexLock lock;
  std::vector<unsigned char> ring;
  std::size_t head = 0;   // index of the oldest byte
  std::size_t count = 0;  // bytes buffered
  bool rd_closed = false;
  bool wr_closed = false;
  threads::OfferList readers;  // parked reads and readable-event offers
  threads::OfferList writers;

  PipeCore(threads::Scheduler& s, std::size_t capacity)
      : sched(s), plat(s.platform()), ring(capacity) {
    MPNJ_CHECK(capacity > 0, "pipe capacity must be positive");
    lock = plat.mutex_lock();
  }

  bool readable_locked() const { return count > 0 || wr_closed; }

  // Block copies between the ring and a caller's buffer: at most two
  // memcpys, split where the ring wraps.  The caller bounds `m` by the bytes
  // buffered (copy_out) or the free space (copy_in).
  void copy_out(unsigned char* out, std::size_t m) const {
    const std::size_t first = std::min(m, ring.size() - head);
    std::memcpy(out, ring.data() + head, first);
    std::memcpy(out + first, ring.data(), m - first);
  }
  void copy_in(const unsigned char* in, std::size_t m) {
    const std::size_t tail = (head + count) % ring.size();
    const std::size_t first = std::min(m, ring.size() - tail);
    std::memcpy(ring.data() + tail, in, first);
    std::memcpy(ring.data(), in + first, m - first);
  }

  void fire(std::vector<threads::Offer>& offers) {
    for (auto& o : offers) o.fire(sched);
    offers.clear();
  }
};

class PipeEnd final : public StreamImpl {
 public:
  PipeEnd(std::shared_ptr<PipeCore> core, bool readable_end)
      : core_(std::move(core)), readable_end_(readable_end) {}

  ~PipeEnd() override {
    // Handles are dropped on MLthreads; make an abandoned end behave like
    // a closed one so the peer never hangs.
    if (!closed_) close();
  }

  std::size_t read_some(void* buf, std::size_t n) override {
    MPNJ_CHECK(readable_end_, "read from the write end of a pipe");
    if (n == 0) return 0;
    PipeCore& c = *core_;
    std::vector<threads::Offer> wake;
    c.plat.lock(c.lock);
    for (;;) {
      if (c.count > 0) {
        const std::size_t m = std::min(n, c.count);
        c.copy_out(static_cast<unsigned char*>(buf), m);
        c.head = (c.head + m) % c.ring.size();
        c.count -= m;
        c.writers.take_all(wake);  // space freed
        c.plat.unlock(c.lock);
        c.fire(wake);
        c.plat.work(kPipeInstrPerByte * static_cast<double>(m));
        MPNJ_METRIC_COUNT(kIoBytesRead, m);
        return m;
      }
      if (c.wr_closed || c.rd_closed || closed_) {
        c.plat.unlock(c.lock);
        return 0;  // EOF
      }
      MPNJ_METRIC_COUNT(kIoParked, 1);
#if MPNJ_METRICS
      const bool timed = metrics::registry().enabled();
      const double parked_at = timed ? c.plat.now_us() : 0;
#endif
      c.sched.suspend([&](threads::ThreadState t) {
        c.readers.push(threads::Offer::plain(std::move(t)));
        c.plat.unlock(c.lock);
      });
#if MPNJ_METRICS
      if (timed) {
        const double waited = c.plat.now_us() - parked_at;
        MPNJ_METRIC_RECORD(kIoWaitUs,
                           waited > 0 ? static_cast<std::uint64_t>(waited) : 0);
      }
#endif
      c.plat.lock(c.lock);
    }
  }

  void write_all(const void* buf, std::size_t n) override {
    MPNJ_CHECK(!readable_end_, "write to the read end of a pipe");
    PipeCore& c = *core_;
    const auto* in = static_cast<const unsigned char*>(buf);
    std::size_t off = 0;
    std::vector<threads::Offer> wake;
    c.plat.lock(c.lock);
    while (off < n) {
      if (c.rd_closed) {
        c.plat.unlock(c.lock);
        arch::raise_errno("pipe write", EPIPE);
      }
      if (c.wr_closed || closed_) {
        c.plat.unlock(c.lock);
        arch::raise_errno("pipe write", EBADF);
      }
      if (c.count < c.ring.size()) {
        const std::size_t m = std::min(n - off, c.ring.size() - c.count);
        c.copy_in(in + off, m);
        c.count += m;
        off += m;
        c.readers.take_all(wake);
        c.plat.unlock(c.lock);
        c.fire(wake);
        c.plat.work(kPipeInstrPerByte * static_cast<double>(m));
        MPNJ_METRIC_COUNT(kIoBytesWritten, m);
        c.plat.lock(c.lock);
        continue;
      }
      MPNJ_METRIC_COUNT(kIoParked, 1);
      c.sched.suspend([&](threads::ThreadState t) {
        c.writers.push(threads::Offer::plain(std::move(t)));
        c.plat.unlock(c.lock);
      });
      c.plat.lock(c.lock);
    }
    c.plat.unlock(c.lock);
  }

  bool poll_readable() override {
    if (!readable_end_) return false;
    PipeCore& c = *core_;
    c.plat.lock(c.lock);
    const bool r = c.readable_locked();
    c.plat.unlock(c.lock);
    return r;
  }

  void on_readable(threads::Offer o) override {
    MPNJ_CHECK(readable_end_, "readiness wait on the write end of a pipe");
    PipeCore& c = *core_;
    c.plat.lock(c.lock);
    if (c.readable_locked()) {
      c.plat.unlock(c.lock);
      o.fire(c.sched);
      return;
    }
    c.readers.push(std::move(o));
    c.plat.unlock(c.lock);
  }

  void close() override {
    PipeCore& c = *core_;
    std::vector<threads::Offer> wake;
    c.plat.lock(c.lock);
    if (closed_) {
      c.plat.unlock(c.lock);
      return;
    }
    closed_ = true;
    if (readable_end_) {
      c.rd_closed = true;  // parked writers wake into EPIPE
    } else {
      c.wr_closed = true;  // parked readers wake into EOF
    }
    c.readers.take_all(wake);  // EOF counts as readable
    c.writers.take_all(wake);
    c.plat.unlock(c.lock);
    c.fire(wake);
  }

 private:
  std::shared_ptr<PipeCore> core_;
  const bool readable_end_;
  bool closed_ = false;  // this end's handle state, under core_->lock
};

// ----- fd streams -----

class FdStream final : public StreamImpl {
 public:
  FdStream(Reactor& reactor, int fd, bool socket)
      : reactor_(reactor), fd_(fd), socket_(socket) {
    const int flags =
        arch::check_sys("fcntl", [&] { return ::fcntl(fd_, F_GETFL); });
    arch::check_sys("fcntl",
                    [&] { return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK); });
    if (socket_) {
      // Request/response traffic over cooperative threads is exactly the
      // write-write-read shape that trips Nagle + delayed ACK (~40 ms per
      // exchange); disable coalescing.  Non-TCP sockets reject the option,
      // which is fine.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }

  ~FdStream() override {
    if (!closed_.load(std::memory_order_acquire)) close();
  }

  std::size_t read_some(void* buf, std::size_t n) override {
    if (n == 0) return 0;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return 0;
      const ssize_t rc = arch::retry_eintr([&] {
        return socket_ ? ::recv(fd_, buf, n, 0) : ::read(fd_, buf, n);
      });
      if (rc >= 0) {
        MPNJ_METRIC_COUNT(kIoBytesRead, static_cast<std::uint64_t>(rc));
        return static_cast<std::size_t>(rc);
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        arch::raise_errno("read", errno);
      }
      reactor_.wait_fd(fd_, Interest::kRead);
    }
  }

  void write_all(const void* buf, std::size_t n) override {
    const auto* p = static_cast<const unsigned char*>(buf);
    std::size_t off = 0;
    while (off < n) {
      if (closed_.load(std::memory_order_acquire)) {
        arch::raise_errno("write", EBADF);
      }
      const ssize_t rc = arch::retry_eintr([&] {
        return socket_ ? ::send(fd_, p + off, n - off, MSG_NOSIGNAL)
                       : ::write(fd_, p + off, n - off);
      });
      if (rc > 0) {
        off += static_cast<std::size_t>(rc);
        MPNJ_METRIC_COUNT(kIoBytesWritten, static_cast<std::uint64_t>(rc));
        continue;
      }
      if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        arch::raise_errno("write", errno);
      }
      reactor_.wait_fd(fd_, Interest::kWrite);
    }
  }

  bool poll_readable() override {
    if (closed_.load(std::memory_order_acquire)) return true;  // EOF now
    pollfd pf{fd_, POLLIN, 0};
    const int n = arch::retry_eintr([&] { return ::poll(&pf, 1, 0); });
    return n > 0 && (pf.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }

  void on_readable(threads::Offer o) override {
    // Fast path only: the reactor's demultiplexer is level-triggered, so a
    // readiness edge between this check and the registration still fires.
    if (poll_readable()) {
      o.fire(reactor_.scheduler());
      return;
    }
    reactor_.add_waiter(fd_, Interest::kRead, std::move(o));
  }

  void close() override {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    // Wake parked waiters first: they re-poll, observe closed_ / the
    // kernel's view of the closed socket, and unwind.
    reactor_.forget_fd(fd_);
    arch::retry_eintr([&] { return ::close(fd_); });
  }

 private:
  Reactor& reactor_;
  const int fd_;
  const bool socket_;
  std::atomic<bool> closed_{false};
};

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

// ----- Stream -----

void Stream::read_exact(void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    const std::size_t m = read_some(p + off, n - off);
    if (m == 0) throw EofError();
    off += m;
  }
}

std::pair<Stream, Stream> Stream::pipe(threads::Scheduler& sched,
                                       std::size_t capacity) {
  auto core = std::make_shared<PipeCore>(sched, capacity);
  return {Stream(std::make_shared<PipeEnd>(core, /*readable_end=*/true)),
          Stream(std::make_shared<PipeEnd>(core, /*readable_end=*/false))};
}

Stream Stream::from_fd(Reactor& reactor, int fd, bool socket) {
  return Stream(std::make_shared<FdStream>(reactor, fd, socket));
}

Stream Stream::connect_tcp(Reactor& reactor, std::uint16_t port) {
  const int fd = arch::check_sys("socket", [] {
    return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  });
  const sockaddr_in addr = loopback_addr(port);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS && errno != EINTR) {
    const int err = errno;
    ::close(fd);
    arch::raise_errno("connect", err);
  }
  if (rc < 0) {
    // In progress: park until the socket is writable, then read the result.
    reactor.wait_fd(fd, Interest::kWrite);
    int err = 0;
    socklen_t len = sizeof(err);
    arch::check_sys("getsockopt", [&] {
      return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    });
    if (err != 0) {
      ::close(fd);
      arch::raise_errno("connect", err);
    }
  }
  return from_fd(reactor, fd, /*socket=*/true);
}

std::pair<Duplex, Duplex> duplex_pipe(threads::Scheduler& sched,
                                      std::size_t capacity) {
  auto [a_in, b_out] = Stream::pipe(sched, capacity);
  auto [b_in, a_out] = Stream::pipe(sched, capacity);
  return {Duplex{std::move(a_in), std::move(a_out)},
          Duplex{std::move(b_in), std::move(b_out)}};
}

// ----- Listener -----

struct Listener::Impl {
  Reactor& reactor;
  int fd;
  std::uint16_t port;
  std::atomic<bool> closed{false};

  Impl(Reactor& r, int f, std::uint16_t p) : reactor(r), fd(f), port(p) {}
  ~Impl() {
    if (!closed.load(std::memory_order_acquire)) do_close();
  }
  void do_close() {
    if (closed.exchange(true, std::memory_order_acq_rel)) return;
    reactor.forget_fd(fd);
    arch::retry_eintr([&] { return ::close(fd); });
  }
};

Listener Listener::tcp(Reactor& reactor, std::uint16_t port, int backlog) {
  const int fd = arch::check_sys("socket", [] {
    return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  });
  const int one = 1;
  arch::check_sys("setsockopt", [&] {
    return ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  });
  sockaddr_in addr = loopback_addr(port);
  arch::check_sys("bind", [&] {
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  });
  arch::check_sys("listen", [&] { return ::listen(fd, backlog); });
  socklen_t len = sizeof(addr);
  arch::check_sys("getsockname", [&] {
    return ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  });
  return Listener(
      std::make_shared<Impl>(reactor, fd, ntohs(addr.sin_port)));
}

std::uint16_t Listener::port() const { return impl_->port; }

Stream Listener::accept() {
  for (;;) {
    if (impl_->closed.load(std::memory_order_acquire)) {
      arch::raise_errno("accept", EBADF);
    }
    const int cfd =
        ::accept4(impl_->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd >= 0) {
      return Stream::from_fd(impl_->reactor, cfd, /*socket=*/true);
    }
    if (errno == EINTR || errno == ECONNABORTED) {
      arch::note_eintr_retry();
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      arch::raise_errno("accept", errno);
    }
    impl_->reactor.wait_fd(impl_->fd, Interest::kRead);
  }
}

void Listener::close() {
  if (impl_) impl_->do_close();
}

}  // namespace mp::io
