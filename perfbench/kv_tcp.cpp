// kv-tcp: open-loop KV serving over loopback TCP.  The server runs on two
// native procs, one shard per proc, behind the io::Reactor and a Listener.
// One plain OS thread generates the load over four connections with the
// kv/proto.h encoders and a kv::ReplyParser: arrivals follow a seeded
// Poisson schedule at kRate requests/s, 90% GET / 10% SET over a key set
// preloaded during set-up, each connection owning a disjoint quarter of the
// keys so its replies are predictable exactly.
//
// Latency is timed from each request's due time, not its send time, so a
// stall also charges the requests it delayed.  The generator keeps at most
// kMaxInFlight requests outstanding per connection; past that it falls
// behind the schedule, reports how late it ran, and marks the run invalid
// when the lateness p99 exceeds kMaxLateUs.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/rng.h"
#include "common.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "kv/proto.h"
#include "kv/server.h"
#include "kv/service.h"
#include "kv_common.h"
#include "mp/native_platform.h"
#include "perfbench.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace perfbench {

namespace {

using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

constexpr int kProcs = 2;
constexpr int kConns = 4;
constexpr double kRate = 25000;  // offered requests per second
constexpr int kKeys = 4096;
constexpr int kValues = 256;     // distinct SET payloads
constexpr int kValueBytes = 32;
constexpr std::size_t kMaxInFlight = 256;
constexpr double kMaxLateUs = 10000;
constexpr double kStuckS = 10;  // no reply for this long: give up

std::string key_name(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", k);
  return buf;
}

std::string value_of(std::uint64_t seed, int v) {
  std::uint64_t x = mix_seed(seed, 1000 + static_cast<std::uint64_t>(v));
  std::string s(kValueBytes, 'a');
  for (auto& ch : s) ch = static_cast<char>('a' + xorshift(x) % 26);
  return s;
}

struct Req {
  double due_s;  // offset from the schedule's start
  int conn;
  bool set;
  int key;
  int value;
  std::uint64_t expect;
};

struct Inputs {
  std::vector<std::string> values;
  std::vector<int> initial;  // preloaded value index per key
  std::vector<Req> schedule;
};

// Keys are owned by connection key % kConns, so each connection's request
// order fixes what every GET must return.  Refills `in` in place: repeated
// set-ups reuse its buffers instead of stacking fresh ones on the heap.
void make_inputs(std::uint64_t seed, double horizon_s, Inputs& in) {
  in.values.clear();
  for (int v = 0; v < kValues; v++) in.values.push_back(value_of(seed, v));
  mp::arch::Rng rng(mix_seed(seed, 7));
  in.initial.assign(kKeys, 0);
  for (auto& v : in.initial) v = static_cast<int>(rng.below(kValues));
  std::vector<int> current = in.initial;
  std::string ok;
  mp::kv::encode_ok(&ok);
  const std::uint64_t ok_digest = fnv(ok);
  in.schedule.clear();
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.unit()) / kRate;
    if (t >= horizon_s) break;
    Req q;
    q.due_s = t;
    q.key = static_cast<int>(rng.below(kKeys));
    q.conn = q.key % kConns;
    q.set = rng.below(10) == 0;
    auto& cur = current[static_cast<std::size_t>(q.key)];
    if (q.set) {
      q.value = static_cast<int>(rng.below(kValues));
      cur = q.value;
      q.expect = ok_digest;
    } else {
      q.value = cur;
      std::string bulk;
      mp::kv::encode_bulk(&bulk, in.values[static_cast<std::size_t>(cur)]);
      q.expect = fnv(bulk);
    }
    in.schedule.push_back(q);
  }
}

// Boundary snapshot taken by the generator as its clock crosses a phase
// edge.
struct Mark {
  double at_s = 0;  // offset from the schedule's start
  double cpu_s = 0;
  double gen_cpu_s = 0;
  mp::metrics::Snapshot snap;
};

// Taken on the generator thread, whose CPU the server's figures exclude.
Mark mark(double at_s) {
  Mark m;
  m.at_s = at_s;
  m.cpu_s = process_cpu_s();
  m.gen_cpu_s = thread_cpu_s();
  m.snap = mp::metrics::registry().snapshot();
  return m;
}

struct Outcome {
  double setup_done_s = 0;  // absolute steady-clock time
  std::vector<Mark> marks;
  // Indexed like the schedule; NaN until known.
  std::vector<double> late_us;
  std::vector<double> lat_us;
  std::vector<double> reply_at_s;
  std::uint64_t mismatches = 0;
  std::uint64_t lost = 0;  // never sent or never answered
  std::string error;

  // Clears for the next set-up, keeping the vectors' buffers.
  void reset() {
    setup_done_s = 0;
    marks.clear();
    late_us.clear();
    lat_us.clear();
    reply_at_s.clear();
    mismatches = 0;
    lost = 0;
    error.clear();
  }
};

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

struct Conn {
  std::unique_ptr<Socket> sock;
  std::string out;       // encoded, not yet written
  std::size_t sent = 0;  // bytes of `out` already written
  std::deque<std::size_t> inflight;  // schedule indices awaiting replies
  mp::kv::ReplyParser parser;
};

std::unique_ptr<Socket> connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  auto s = std::make_unique<Socket>(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

void write_blocking(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

// Blocking read of `count` replies; returns their digests.
std::vector<std::uint64_t> read_replies(Conn& c, std::size_t count) {
  std::vector<std::uint64_t> out;
  mp::kv::Reply rep;
  char buf[16384];
  while (out.size() < count) {
    if (c.parser.next(&rep)) {
      out.push_back(reply_digest(rep));
      continue;
    }
    const ssize_t n = ::recv(c.sock->fd(), buf, sizeof(buf), 0);
    if (n <= 0) throw std::runtime_error("connection closed during set-up");
    c.parser.feed(buf, static_cast<std::size_t>(n));
  }
  return out;
}

// QUIT and its +OK, blocking; the server then closes the connection.
void quit(Conn& cn) {
  const int fd = cn.sock->fd();
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  std::string bytes;
  mp::kv::encode_quit(&bytes);
  write_blocking(fd, bytes);
  read_replies(cn, 1);
}

struct GenConfig {
  std::uint16_t port = 0;
  const Inputs* in = nullptr;
  std::vector<double> edges;  // phase edges, offsets from schedule start
  std::vector<bool> metrics_on;  // registry state from each edge on
  bool run = false;           // false: set up, then disconnect at once
  bool corrupt = false;
  std::atomic<double>* start_s = nullptr;  // published schedule start
};

void generate(const GenConfig& g, Outcome& out) {
  const Inputs& in = *g.in;
  const auto& sched = in.schedule;
  std::vector<Conn> conns(kConns);
  std::string ok;
  mp::kv::encode_ok(&ok);
  const std::uint64_t ok_digest = fnv(ok);
  for (int c = 0; c < kConns; c++) conns[static_cast<std::size_t>(c)].sock = connect_to(g.port);

  // Preload every key on its owning connection, pipelined, checked.
  for (int c = 0; c < kConns; c++) {
    Conn& cn = conns[static_cast<std::size_t>(c)];
    std::string batch;
    std::size_t n = 0;
    for (int k = c; k < kKeys; k += kConns) {
      mp::kv::encode_set(&batch, key_name(k),
                         in.values[static_cast<std::size_t>(in.initial[static_cast<std::size_t>(k)])]);
      n++;
    }
    write_blocking(cn.sock->fd(), batch);
    for (const auto d : read_replies(cn, n)) {
      if (d != ok_digest) out.mismatches++;
    }
  }
  out.setup_done_s = now_s();
  if (!g.run) {
    for (auto& cn : conns) quit(cn);
    return;
  }

  for (auto& cn : conns) {
    ::fcntl(cn.sock->fd(), F_SETFL, ::fcntl(cn.sock->fd(), F_GETFL) | O_NONBLOCK);
  }
  out.late_us.assign(sched.size(), NAN);
  out.lat_us.assign(sched.size(), NAN);
  out.reply_at_s.assign(sched.size(), NAN);

  CpuRotation rotation(1);  // this generator alone, the server on the rest
  const double t0 = now_s();
  g.start_s->store(t0);
  std::size_t next = 0;
  std::size_t edge = 0;
  std::size_t outstanding = 0;
  double last_progress = t0;
  char buf[65536];
  std::vector<pollfd> fds(kConns);
  mp::kv::Reply rep;
  for (;;) {
    double now = now_s() - t0;
    while (edge < g.edges.size() && now >= g.edges[edge]) {
      rotation.step_apart(edge);
      out.marks.push_back(mark(now));
      mp::metrics::registry().set_enabled(g.metrics_on[edge]);
      edge++;
    }
    // Send everything due, in schedule order, while windows allow.
    while (next < sched.size() && sched[next].due_s <= now) {
      const Req& q = sched[next];
      Conn& cn = conns[static_cast<std::size_t>(q.conn)];
      if (cn.inflight.size() >= kMaxInFlight) break;
      if (q.set) {
        mp::kv::encode_set(&cn.out, key_name(q.key),
                           in.values[static_cast<std::size_t>(q.value)]);
      } else {
        mp::kv::encode_get(&cn.out, key_name(q.key));
      }
      cn.inflight.push_back(next);
      out.late_us[next] = (now - q.due_s) * 1e6;
      outstanding++;
      next++;
      now = now_s() - t0;
    }
    for (int c = 0; c < kConns; c++) {
      Conn& cn = conns[static_cast<std::size_t>(c)];
      while (cn.sent < cn.out.size()) {
        const ssize_t n = ::send(cn.sock->fd(), cn.out.data() + cn.sent,
                                 cn.out.size() - cn.sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        cn.sent += static_cast<std::size_t>(n);
      }
      if (cn.sent == cn.out.size()) {
        cn.out.clear();
        cn.sent = 0;
      }
      fds[static_cast<std::size_t>(c)] = {cn.sock->fd(),
                                          static_cast<short>(POLLIN | (cn.out.empty() ? 0 : POLLOUT)),
                                          0};
    }
    if (next == sched.size() && outstanding == 0) break;
    if (now_s() - last_progress > kStuckS) {
      out.error = "no reply for " + num(kStuckS) + " s";
      break;
    }

    // Busy-poll: a generator that sleeps until the next due time would add
    // its own wake-up latency to every request's due-time latency.
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;

    for (int c = 0; c < kConns; c++) {
      if ((fds[static_cast<std::size_t>(c)].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& cn = conns[static_cast<std::size_t>(c)];
      const ssize_t n = ::recv(cn.sock->fd(), buf, sizeof(buf), 0);
      if (n <= 0) continue;
      const double at = now_s();
      cn.parser.feed(buf, static_cast<std::size_t>(n));
      while (cn.parser.next(&rep)) {
        if (cn.inflight.empty()) {
          out.mismatches++;
          continue;
        }
        const std::size_t i = cn.inflight.front();
        cn.inflight.pop_front();
        outstanding--;
        std::uint64_t got = reply_digest(rep);
        if (g.corrupt && i == sched.size() / 2) got ^= 1;
        if (got != sched[i].expect) out.mismatches++;
        out.lat_us[i] = (at - t0 - sched[i].due_s) * 1e6;
        out.reply_at_s[i] = at - t0;
        g_done.fetch_add(1, std::memory_order_relaxed);
      }
      last_progress = at;
    }
  }
  for (; edge < g.edges.size(); edge++) {  // a run cut short still closes its slices
    out.marks.push_back(mark(now_s() - t0));
  }
  out.lost = (sched.size() - next) + outstanding;
  if (out.error.empty()) {
    for (auto& cn : conns) quit(cn);
  }
}

// Slice k of the run: marks k and k + 1.  Latencies are those of the
// requests due in the slice; throughput counts the replies that arrived in it.
Slice slice_of(const Inputs& in, const Outcome& out, std::size_t k) {
  const Mark& a = out.marks[k];
  const Mark& b = out.marks[k + 1];
  Slice sl;
  sl.wall_s = b.at_s - a.at_s;
  sl.cpu_s = (b.cpu_s - a.cpu_s) - (b.gen_cpu_s - a.gen_cpu_s);
  for (std::size_t i = 0; i < in.schedule.size(); i++) {
    const double due = in.schedule[i].due_s;
    if (due >= a.at_s && due < b.at_s && !std::isnan(out.lat_us[i])) {
      sl.lat.add(out.lat_us[i]);
    }
    const double at = out.reply_at_s[i];
    if (at >= a.at_s && at < b.at_s) sl.ops++;
  }
  return sl;
}

// Lateness of the requests due between marks `from` and `to`.
std::vector<double> lateness(const Inputs& in, const Outcome& out,
                             std::size_t from, std::size_t to) {
  std::vector<double> late;
  for (std::size_t i = 0; i < in.schedule.size(); i++) {
    const double due = in.schedule[i].due_s;
    if (due >= out.marks[from].at_s && due < out.marks[to].at_s &&
        !std::isnan(out.late_us[i])) {
      late.push_back(out.late_us[i]);
    }
  }
  return late;
}

}  // namespace

void run_kv_tcp(const Options& o, Result& r) {
  const SlicePlan plan = plan_slices(o);
  const int n_slices = plan.count;
  std::vector<double> setup_s;
  Outcome out;
  Inputs inputs;
  const int setups = o.trace ? 1 : kSetups;

  for (int rep = 0; rep < setups; rep++) {
    const bool measure = rep == setups - 1;
    const double t0 = now_s();
    make_inputs(o.seed, kWarmupS + n_slices * kSliceS, inputs);
    out.reset();
    std::atomic<double> start_s{0};
    GenConfig g;
    g.in = &inputs;
    g.run = measure;
    g.corrupt = o.corrupt;
    g.start_s = &start_s;
    for (int k = 0; k <= n_slices; k++) {
      g.edges.push_back(kWarmupS + k * kSliceS);
      g.metrics_on.push_back(k >= plan.first_traced);
    }

    std::thread gen;
    struct Joiner {
      std::thread& t;
      ~Joiner() {
        if (t.joinable()) t.join();
      }
    } joiner{gen};

    mp::NativePlatformConfig cfg;
    cfg.max_procs = kProcs;
    mp::NativePlatform platform(cfg);
    Scheduler::run(platform, {}, [&](Scheduler& sched) {
      mp::kv::KvConfig kcfg;
      kcfg.shards = kProcs;
      kcfg.seed = o.seed;
      mp::kv::KvService svc(sched, kcfg);
      svc.start();
      auto reactor = std::make_unique<mp::io::Reactor>(sched);
      mp::io::Listener lis = mp::io::Listener::tcp(*reactor, 0, 16);
      CountdownLatch served(sched, kConns);
      sched.fork([&] {
        for (int c = 0; c < kConns; c++) {
          mp::io::Stream s = lis.accept();
          sched.fork([&svc, &served, s] {
            mp::kv::serve(svc, mp::io::Duplex{s, s});
            served.count_down();
          });
        }
      });
      if (measure && o.stall_ms > 0) {
        // Self-test hook: a third of the way into the measured window, hog
        // both procs with compute that never yields.
        sched.fork([&] {
          while (start_s.load() == 0) sched.sleep_for(1000);
          const double at = start_s.load() + kWarmupS + n_slices * kSliceS / 3;
          sched.sleep_for(std::max(0.0, at - now_s()) * 1e6);
          CountdownLatch spun(sched, kProcs);
          for (int p = 0; p < kProcs; p++) {
            sched.fork([&] {
              const double end = now_s() + o.stall_ms / 1e3;
              while (now_s() < end) {
              }
              spun.count_down();
            });
          }
          spun.await();
        });
      }
      g.port = lis.port();
      gen = std::thread([&g, &out] {
        try {
          generate(g, out);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
      });
      served.await();
      svc.stop();
      lis.close();
      reactor.reset();
    });
    if (gen.joinable()) gen.join();
    setup_s.push_back(out.setup_done_s - t0);
    if (!out.error.empty()) {
      r.fail("generator: " + out.error);
      break;
    }
  }

  const std::uint64_t n_sched = inputs.schedule.size();
  r.attempted = n_sched;
  r.failed = std::min<std::uint64_t>(n_sched, out.mismatches + out.lost);
  g_failed.store(r.failed);
  if (out.mismatches > 0) r.fail(std::to_string(out.mismatches) + " replies differ from the model");
  if (out.lost > 0) r.fail(std::to_string(out.lost) + " requests got no reply");
  if (out.marks.size() != static_cast<std::size_t>(n_slices) + 1) return;

  const auto first_traced = static_cast<std::size_t>(plan.first_traced);
  std::vector<Slice> slices;
  for (std::size_t k = 0; k < out.marks.size() - 1; k++) {
    slices.push_back(slice_of(inputs, out, k));
  }
  const Tail late = tail_percentile(lateness(inputs, out, 0, first_traced), {99});
  r.note("gen_late_us", tail_json(late));
  r.note("offered_per_s", num(kRate));
  if (late.value > kMaxLateUs) {
    r.fail("invalid: generator ran " + num(late.value) +
           " us late at p99, past the " + num(kMaxLateUs) + " us limit");
  }
  Delta d;
  d.before = out.marks[first_traced].snap;
  d.after = out.marks.back().snap;
  report_kv(slices, plan, o.trace, setup_s, d, r);
  if (!o.trace) return;
  const std::vector<double> traced_late =
      lateness(inputs, out, first_traced, out.marks.size() - 1);
  r.add("bench.gen_late_us_p99", tail_percentile(traced_late, {99}).value, "us");
}

}  // namespace perfbench
