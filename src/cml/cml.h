#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "gc/roots.h"
#include "metrics/metrics.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

// CSP-style selective communication (paper section 4.2, Figures 4 and 5)
// and a Concurrent-ML-style composable event layer, built from mutex locks,
// refs, and first-class continuations — the multiprocessor CML prototype the
// paper describes.
//
// Commitment protocol.  Figure 5 guards each receiver with a `committed`
// mutex lock that the first matching sender wins.  For full selective
// communication on BOTH sides (an event may offer sends and receives on
// many channels at once) a one-bit lock is not quite enough: Figure 5's
// receive can pop a sender and then discover itself already committed,
// losing the popped sender.  We therefore use the three-state synchronizer
// from Reppy's CML implementation — WAITING / CLAIMED (transient, owned by
// the actively polling thread) / SYNCHED — which lets an active thread
// *retract* a tentative claim when its candidate partner turns out to be
// dead, instead of dropping the candidate.  DESIGN.md records this as a
// deliberate fix of the simplified Figure 5 protocol.

namespace mp::cml {

namespace detail {

enum class SyncSt : std::uint8_t { kWaiting, kClaimed, kSynched };

// Shared synchronization point of one `sync` call: each base event offered
// to a channel queue references this; exactly one base commits.
struct EventState {
  std::atomic<SyncSt> st{SyncSt::kWaiting};
  int fired_base = -1;
  // Set by the offering pass after its last touch of the sync frame.  A
  // partner may commit a parked offer and resume the sync on another proc
  // while the offering pass is still scanning the remaining bases; the
  // resumed side must not return (destroying the event and the frame under
  // the scanner) until the offerer signs off.
  std::atomic<bool> offers_done{false};

  bool synched() const {
    return st.load(std::memory_order_acquire) == SyncSt::kSynched;
  }
  // Owner side: tentatively claim while examining a candidate partner.
  bool try_claim() {
    SyncSt expected = SyncSt::kWaiting;
    return st.compare_exchange_strong(expected, SyncSt::kClaimed,
                                      std::memory_order_acq_rel);
  }
  void retract() { st.store(SyncSt::kWaiting, std::memory_order_release); }
  void commit_self(int base) {
    fired_base = base;
    st.store(SyncSt::kSynched, std::memory_order_release);
  }
  // Partner side: commit a queued waiter.  Spins through the transient
  // CLAIMED state (charging time so the claimant can run in the simulator).
  bool try_commit_partner(int base, Platform& p) {
    for (;;) {
      SyncSt expected = SyncSt::kWaiting;
      if (st.compare_exchange_strong(expected, SyncSt::kSynched,
                                     std::memory_order_acq_rel)) {
        fired_base = base;
        return true;
      }
      if (expected == SyncSt::kSynched) return false;  // already elsewhere
      p.work(5);  // CLAIMED: transient; let the claimant resolve it
    }
  }
};

// A parked offer on a channel queue (the paper's sndr / rcvr records).
struct Waiter {
  std::shared_ptr<EventState> state;
  cont::ContRef k;  // resumed with the raw payload (senders: unit)
  int thread_id = 0;
  int base_index = 0;
  bool gc_payload = false;
  std::uint64_t raw = 0;     // senders: the value being sent (non-GC case)
  gc::GlobalRoot root;       // senders: the value being sent (GC case)

  std::uint64_t payload() const {
    return gc_payload ? root.get().raw_bits() : raw;
  }
};

enum class Outcome { kCommitted, kBlocked, kDead };

}  // namespace detail

template <typename T>
class Channel;

// A first-class synchronous operation producing a T.  Compose with
// Channel::send_event / recv_event, Event::always, Event::choose and
// Event::wrap; perform with sync().
template <typename T>
class Event {
 public:
  Event() = default;

  // An event that is always ready and yields `v`.
  static Event always(const T& v) {
    Event e;
    Base b;
    const std::uint64_t raw = cont::detail::encode_slot(v);
    b.attempt = [raw](threads::Scheduler&,
                      const std::shared_ptr<detail::EventState>& own, int idx,
                      int, const cont::ContRef&,
                      std::uint64_t* out) -> detail::Outcome {
      if (own->synched()) return detail::Outcome::kDead;
      if (!own->try_claim()) return detail::Outcome::kDead;
      own->commit_self(idx);
      *out = raw;
      return detail::Outcome::kCommitted;
    };
    b.convert = [](std::uint64_t bits) {
      return cont::detail::decode_slot<T>(bits);
    };
    e.bases_.push_back(std::move(b));
    return e;
  }

  // Nondeterministic choice: whichever component event can commit first.
  static Event choose(std::vector<Event> events) {
    Event e;
    for (auto& ev : events) {
      for (auto& b : ev.bases_) e.bases_.push_back(std::move(b));
    }
    return e;
  }

  // The event that becomes ready `us` after the sync begins (CML's
  // timeout event).  Only defined for T = Unit; wrap it to change type.
  // Relies on the scheduler's timer facility, so it needs an active
  // dispatch loop to fire (see Scheduler::at).
  static Event after(threads::Scheduler& sched, double us) {
    static_assert(std::is_same_v<T, cont::Unit>,
                  "Event::after yields Unit; use wrap to change its type");
    Event e;
    Base b;
    (void)sched;  // the event is synced on the same scheduler
    b.attempt = [us](threads::Scheduler& s,
                     const std::shared_ptr<detail::EventState>& own, int idx,
                     int tid, const cont::ContRef& k,
                     std::uint64_t* out) -> detail::Outcome {
      Platform& p = s.platform();
      if (us <= 0) {
        if (own->synched() || !own->try_claim()) return detail::Outcome::kDead;
        own->commit_self(idx);
        *out = 0;
        return detail::Outcome::kCommitted;
      }
      // Park an offer; the timer commits it when the deadline passes.
      s.at(p.now_us() + us, [own, k, idx, tid, &s] {
        if (own->try_commit_partner(idx, s.platform())) {
          k.get()->preload(0, false);
          s.reschedule(threads::ThreadState{k, tid});
        }
      });
      return detail::Outcome::kBlocked;
    };
    b.convert = [](std::uint64_t) { return T{}; };
    e.bases_.push_back(std::move(b));
    return e;
  }

  // Extension point for external event sources (the src/io reactor): build
  // an event from one raw base.  `attempt` follows the contract of the
  // channel attempts above — poll once under your own locks, then commit
  // against `own` (commit_self for the immediate case), park an offer whose
  // eventual committer uses try_commit_partner + preload + reschedule, or
  // report kDead; it must release any lock it takes before returning.
  // `convert` maps the committed raw payload to the event's result.
  using AttemptFn = std::function<detail::Outcome(
      threads::Scheduler&, const std::shared_ptr<detail::EventState>&, int,
      int, const cont::ContRef&, std::uint64_t*)>;
  static Event primitive(AttemptFn attempt,
                         std::function<T(std::uint64_t)> convert) {
    Event e;
    Base b;
    b.attempt = std::move(attempt);
    b.convert = std::move(convert);
    e.bases_.push_back(std::move(b));
    return e;
  }

  // Post-process the result (CML's wrap combinator).
  template <typename U>
  Event<U> wrap(std::function<U(T)> f) && {
    Event<U> e;
    for (auto& b : bases_) {
      typename Event<U>::Base nb;
      nb.attempt = std::move(b.attempt);
      nb.convert = [inner = std::move(b.convert), f](std::uint64_t bits) {
        return f(inner(bits));
      };
      e.bases_.push_back(std::move(nb));
    }
    return e;
  }

  // Perform the event: commit immediately against a matching offer if one
  // exists (bases polled in pseudo-random order, as Figure 5's receive
  // randomizes its channel list), otherwise park an offer on every base and
  // yield the proc until a partner commits us.
  T sync(threads::Scheduler& sched) {
    MPNJ_CHECK(!bases_.empty(), "sync of an empty event");
    Platform& p = sched.platform();
    p.work(20);
    auto own = std::make_shared<detail::EventState>();
    int immediate_base = -1;

    // Preemption stays masked for the whole offer/commit sequence: a timer
    // yield in the middle would capture a second continuation for a thread
    // that may already be committed through its parked offers.
    p.mask_signal(Sig::kPreempt);
    const std::uint64_t raw = cont::callcc<std::uint64_t>(
        [&](cont::Cont<std::uint64_t> k) -> std::uint64_t {
          std::uint64_t out = 0;
          immediate_base = offer(sched, own, std::move(k).take_ref(), &out);
          // No safe point between a commit and the implicit throw: `out`
          // may be an unrooted heap value.
          if (immediate_base >= 0) return out;
          // Every base parked an offer, or a partner committed one of them
          // while we were scanning (our continuation is, or will be, on the
          // ready queue with the payload preloaded): give up the proc.
          // This frame owns nothing now; the dispatch abandons it.
          own->offers_done.store(true, std::memory_order_release);
          sched.dispatch_from_blocked();
        });
    p.unmask_signal(Sig::kPreempt);
    if (immediate_base < 0) {
      // Parked and committed by a partner: wait for the offering pass to
      // finish with this frame before touching (or destroying) anything it
      // still reads.  work() keeps the spin a safe point and advances the
      // simulator clock so the offerer can run.
      while (!own->offers_done.load(std::memory_order_acquire)) p.work(5);
    }
    const int fired =
        immediate_base >= 0 ? immediate_base : own->fired_base;
    MPNJ_CHECK(fired >= 0, "event resumed without a committed base");
    return bases_[static_cast<std::size_t>(fired)].convert(raw);
  }

 private:
  template <typename>
  friend class Event;
  template <typename>
  friend class Channel;

  struct Base {
    // Polls the base once: commits against a waiting partner, parks an
    // offer, or reports that this sync is already dead.  Releases any
    // channel lock before returning.
    std::function<detail::Outcome(
        threads::Scheduler&, const std::shared_ptr<detail::EventState>&, int,
        int, const cont::ContRef&, std::uint64_t*)>
        attempt;
    std::function<T(std::uint64_t)> convert;
  };

  // One offering pass of sync: polls the bases in pseudo-random order,
  // returning the index of the first that commits immediately (its payload
  // in *out), or -1 once every base parked an offer or one reported this
  // sync dead.  The polling order and `k` die with this frame, before sync's
  // body dispatches.
  int offer(threads::Scheduler& sched,
            const std::shared_ptr<detail::EventState>& own, cont::ContRef k,
            std::uint64_t* out) {
    Platform& p = sched.platform();
    const int tid = sched.id();
    std::vector<std::size_t> order(bases_.size());
    for (std::size_t i = 0; i < order.size(); i++) order[i] = i;
    for (std::size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[p.rng().below(i)]);
    }
    for (const std::size_t i : order) {
      const auto oc =
          bases_[i].attempt(sched, own, static_cast<int>(i), tid, k, out);
      if (oc == detail::Outcome::kCommitted) return static_cast<int>(i);
      if (oc == detail::Outcome::kDead) return -1;
    }
    return -1;
  }

  std::vector<Base> bases_;
};

// A synchronous channel of T (paper Figure 4's 'a chan): send blocks until
// a receiver takes the value and vice versa.
template <typename T>
class Channel {
 public:
  explicit Channel(threads::Scheduler& sched) : sched_(sched) {
    ch_lock_ = sched_.platform().mutex_lock();
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(const T& v) { send_event(v).sync(sched_); }
  T recv() { return recv_event().sync(sched_); }

  // The event of sending `v` on this channel.
  Event<cont::Unit> send_event(const T& v) {
    Event<cont::Unit> e;
    typename Event<cont::Unit>::Base b;
    const std::uint64_t raw = cont::detail::encode_slot(v);
    std::shared_ptr<gc::GlobalRoot> rooted;
    if (cont::is_gc_traced<T>::value) {
      rooted = std::make_shared<gc::GlobalRoot>(
          sched_.platform().heap(), gc::Value::from_raw_bits(raw));
    }
    b.attempt = [this, raw, rooted](
                    threads::Scheduler& sched,
                    const std::shared_ptr<detail::EventState>& own, int idx,
                    int tid, const cont::ContRef& k,
                    std::uint64_t* out) -> detail::Outcome {
      const std::uint64_t payload =
          rooted != nullptr ? rooted->get().raw_bits() : raw;
      return attempt_send(sched, own, idx, tid, k, payload,
                          rooted != nullptr, out);
    };
    b.convert = [](std::uint64_t) { return cont::Unit{}; };
    e.bases_.push_back(std::move(b));
    return e;
  }

  // The event of receiving a value from this channel.
  Event<T> recv_event() {
    Event<T> e;
    typename Event<T>::Base b;
    b.attempt = [this](threads::Scheduler& sched,
                       const std::shared_ptr<detail::EventState>& own, int idx,
                       int tid, const cont::ContRef& k,
                       std::uint64_t* out) -> detail::Outcome {
      return attempt_recv(sched, own, idx, tid, k, out);
    };
    b.convert = [](std::uint64_t bits) {
      return cont::detail::decode_slot<T>(bits);
    };
    e.bases_.push_back(std::move(b));
    return e;
  }

  threads::Scheduler& scheduler() { return sched_; }

 private:
  template <typename>
  friend class Event;

  detail::Outcome attempt_recv(threads::Scheduler& sched,
                               const std::shared_ptr<detail::EventState>& own,
                               int idx, int tid, const cont::ContRef& k,
                               std::uint64_t* out) {
    Platform& p = sched.platform();
    p.lock(ch_lock_);
    for (;;) {
      if (own->synched()) {
        p.unlock(ch_lock_);
        return detail::Outcome::kDead;
      }
      if (sndrs_.empty()) {
        detail::Waiter w;
        w.state = own;
        w.k = k;
        w.thread_id = tid;
        w.base_index = idx;
        w.gc_payload = false;
        drop_dead(rcvrs_);
        rcvrs_.push_back(std::move(w));
        p.unlock(ch_lock_);
        MPNJ_METRIC_COUNT(kCmlOffersParked, 1);
        return detail::Outcome::kBlocked;
      }
      detail::Waiter cand = std::move(sndrs_.front());
      sndrs_.pop_front();
      if (cand.state->synched()) {
        MPNJ_METRIC_COUNT(kCmlSelectRetries, 1);
        continue;  // dead offer: drop it
      }
      if (!own->try_claim()) {
        // We were committed through a parked offer on another channel;
        // put the candidate back (the fix to Figure 5's dropped sender).
        sndrs_.push_front(std::move(cand));
        p.unlock(ch_lock_);
        return detail::Outcome::kDead;
      }
      if (!cand.state->try_commit_partner(cand.base_index, p)) {
        own->retract();
        MPNJ_METRIC_COUNT(kCmlSelectRetries, 1);
        continue;  // candidate died while we claimed; try the next one
      }
      own->commit_self(idx);
      MPNJ_METRIC_COUNT(kCmlRecvs, 1);
      // Wake the sender with unit...
      cand.k.get()->preload(0, false);
      p.unlock(ch_lock_);
      sched.reschedule(
          threads::ThreadState{std::move(cand.k), cand.thread_id});
      // ...and read the payload last: `cand.root` is still registered, so
      // a collection at the reschedule's safe points kept it current.
      *out = cand.payload();
      return detail::Outcome::kCommitted;
    }
  }

  detail::Outcome attempt_send(threads::Scheduler& sched,
                               const std::shared_ptr<detail::EventState>& own,
                               int idx, int tid, const cont::ContRef& k,
                               std::uint64_t payload, bool gc_payload,
                               std::uint64_t* out) {
    Platform& p = sched.platform();
    p.lock(ch_lock_);
    for (;;) {
      if (own->synched()) {
        p.unlock(ch_lock_);
        return detail::Outcome::kDead;
      }
      if (rcvrs_.empty()) {
        detail::Waiter w;
        w.state = own;
        w.k = k;
        w.thread_id = tid;
        w.base_index = idx;
        w.gc_payload = gc_payload;
        w.raw = payload;
        if (gc_payload) {
          w.root = gc::GlobalRoot(p.heap(), gc::Value::from_raw_bits(payload));
        }
        drop_dead(sndrs_);
        sndrs_.push_back(std::move(w));
        p.unlock(ch_lock_);
        MPNJ_METRIC_COUNT(kCmlOffersParked, 1);
        return detail::Outcome::kBlocked;
      }
      detail::Waiter cand = std::move(rcvrs_.front());
      rcvrs_.pop_front();
      if (cand.state->synched()) {
        MPNJ_METRIC_COUNT(kCmlSelectRetries, 1);
        continue;
      }
      if (!own->try_claim()) {
        rcvrs_.push_front(std::move(cand));
        p.unlock(ch_lock_);
        return detail::Outcome::kDead;
      }
      if (!cand.state->try_commit_partner(cand.base_index, p)) {
        own->retract();
        MPNJ_METRIC_COUNT(kCmlSelectRetries, 1);
        continue;
      }
      own->commit_self(idx);
      MPNJ_METRIC_COUNT(kCmlSends, 1);
      // Deliver the value to the receiver and reschedule it (the paper's
      // reschedule_thread: converting the 'a cont + value into a resumable
      // thread is exactly preload + enqueue here).
      cand.k.get()->preload(payload, gc_payload);
      p.unlock(ch_lock_);
      sched.reschedule(
          threads::ThreadState{std::move(cand.k), cand.thread_id});
      *out = 0;  // the sender's result is unit
      return detail::Outcome::kCommitted;
    }
  }

  // Drops the offers of `q` whose sync committed through another base, so a
  // select that keeps losing here does not pin one continuation per loss
  // until a partner scans past it.  Claimed offers stay: the claimant may
  // retract.  Called under ch_lock_ before each push onto `q`.
  static void drop_dead(std::deque<detail::Waiter>& q) {
    std::erase_if(q,
                  [](const detail::Waiter& w) { return w.state->synched(); });
  }

  threads::Scheduler& sched_;
  MutexLock ch_lock_;
  std::deque<detail::Waiter> sndrs_;
  std::deque<detail::Waiter> rcvrs_;
};

// The paper's SELECT signature (Figure 4): receive a value from one of a
// list of channels, chosen nondeterministically.
template <typename T>
T select_receive(const std::vector<Channel<T>*>& channels) {
  MPNJ_CHECK(!channels.empty(), "receive from an empty channel list");
  std::vector<Event<T>> events;
  events.reserve(channels.size());
  for (Channel<T>* ch : channels) events.push_back(ch->recv_event());
  return Event<T>::choose(std::move(events)).sync(channels[0]->scheduler());
}

// Receive with a timeout: nullopt if no sender rendezvoused within `us`.
template <typename T>
std::optional<T> recv_timeout(Channel<T>& ch, double us) {
  bool timed_out = false;
  T out{};
  Event<cont::Unit>::choose(
      {ch.recv_event().template wrap<cont::Unit>([&](T v) {
        out = v;
        return cont::Unit{};
      }),
       Event<cont::Unit>::after(ch.scheduler(), us)
           .template wrap<cont::Unit>([&](cont::Unit) {
             timed_out = true;
             return cont::Unit{};
           })})
      .sync(ch.scheduler());
  if (timed_out) return std::nullopt;
  return out;
}

// Send with a timeout: false if no receiver rendezvoused within `us`.
template <typename T>
bool send_timeout(Channel<T>& ch, const T& v, double us) {
  bool timed_out = false;
  Event<cont::Unit>::choose(
      {ch.send_event(v),
       Event<cont::Unit>::after(ch.scheduler(), us)
           .template wrap<cont::Unit>([&](cont::Unit) {
             timed_out = true;
             return cont::Unit{};
           })})
      .sync(ch.scheduler());
  return !timed_out;
}

}  // namespace mp::cml
