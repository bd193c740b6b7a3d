#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

#include "io/reactor.h"
#include "threads/offer.h"
#include "threads/scheduler.h"

// Byte streams with blocking-looking reads and writes that never block the
// proc: when a stream cannot make progress the calling MLthread parks an
// offer (threads/offer.h: against fd readiness in the reactor, or on the
// pipe's own reader and writer lists) and the proc dispatches other work.
// A CML readiness event (io_event.h) parks the same record on the same
// lists.
//
// Two families share one interface:
//  - Virtual pipes (Stream::pipe): in-memory bounded byte rings handed off
//    thread-to-thread through the scheduler alone.  They involve no kernel
//    state, so they run — deterministically — on every platform backend,
//    including the simulator.
//  - Fd streams (Stream::from_fd / connect_tcp / Listener): non-blocking
//    OS file descriptors parked in a Reactor; native and uni backends.

namespace mp::io {

// Premature end-of-stream inside read_exact.
class EofError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "end of stream before the requested bytes";
  }
};

// Internal polymorphic stream body; use the Stream value type below.
class StreamImpl {
 public:
  virtual ~StreamImpl() = default;
  // Read up to n bytes; blocks the thread (not the proc) until at least one
  // byte or EOF.  Returns 0 only at EOF.
  virtual std::size_t read_some(void* buf, std::size_t n) = 0;
  // Write all n bytes, parking as needed; raises SysError(EPIPE) when the
  // read side is gone.
  virtual void write_all(const void* buf, std::size_t n) = 0;
  // Non-blocking: would read_some return without parking (data or EOF)?
  virtual bool poll_readable() = 0;
  // Park a one-shot offer that fires (Offer::fire) when the stream becomes
  // readable or hits EOF, from whichever proc observes it; fires at once
  // if already readable.  Dead offers are pruned by the list's rule.
  virtual void on_readable(threads::Offer o) = 0;
  virtual void close() = 0;
};

// Shared-handle stream value (copy = another handle on the same stream).
class Stream {
 public:
  Stream() = default;

  std::size_t read_some(void* buf, std::size_t n) {
    return impl_->read_some(buf, n);
  }
  // Read exactly n bytes or throw EofError.
  void read_exact(void* buf, std::size_t n);
  void write_all(const void* buf, std::size_t n) {
    impl_->write_all(buf, n);
  }
  bool poll_readable() { return impl_->poll_readable(); }
  void close() {
    if (impl_) impl_->close();
  }
  bool valid() const { return impl_ != nullptr; }
  const std::shared_ptr<StreamImpl>& impl() const { return impl_; }

  // In-memory bounded pipe: (read end, write end).  Works on every
  // platform backend; charges platform work per byte so the simulator's
  // virtual clock advances.
  static std::pair<Stream, Stream> pipe(threads::Scheduler& sched,
                                        std::size_t capacity = 4096);

  // Adopt an OS fd (made non-blocking); `socket` selects send/recv with
  // MSG_NOSIGNAL over read/write.
  static Stream from_fd(Reactor& reactor, int fd, bool socket = false);

  // Non-blocking connect to 127.0.0.1:port, parked until established.
  static Stream connect_tcp(Reactor& reactor, std::uint16_t port);

 private:
  explicit Stream(std::shared_ptr<StreamImpl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<StreamImpl> impl_;
};

// A bidirectional endpoint built from two unidirectional streams.
struct Duplex {
  Stream in;   // read from the peer
  Stream out;  // write to the peer
  void close() {
    in.close();
    out.close();
  }
};

// Two cross-connected virtual pipes: a loopback "connection" that runs on
// any backend.  Returns (client endpoint, server endpoint).
std::pair<Duplex, Duplex> duplex_pipe(threads::Scheduler& sched,
                                      std::size_t capacity = 4096);

// Listening TCP socket on 127.0.0.1 (port 0 = kernel-assigned; read the
// result back with port()).  accept() parks the calling thread until a
// connection arrives.
class Listener {
 public:
  Listener() = default;
  static Listener tcp(Reactor& reactor, std::uint16_t port = 0,
                      int backlog = 128);
  std::uint16_t port() const;
  Stream accept();
  void close();
  bool valid() const { return impl_ != nullptr; }

 private:
  struct Impl;
  explicit Listener(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

}  // namespace mp::io
