#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "gc/roots.h"
#include "metrics/metrics.h"
#include "threads/offer.h"
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
// the actively polling thread) / SYNCHED, threads::SyncCell — which lets an
// active thread *retract* a tentative claim when its candidate partner
// turns out to be dead, instead of dropping the candidate.  DESIGN.md
// records this as a deliberate fix of the simplified Figure 5 protocol.
//
// Each base a sync cannot commit at once parks one threads::Offer (the
// paper's sndr / rcvr record) on its source: a channel's sender or
// receiver list, a stream's readiness list (src/io), or the scheduler's
// timer heap.  Whichever source commits first resumes the sync through the
// one commit rule in threads/offer.h; the other offers are then dead and
// their sources prune them.

namespace mp::cml {

namespace detail {

enum class Outcome { kCommitted, kBlocked, kDead };

// Commits `me`'s sync through its own base at once, yielding `v` (a base
// that is ready when polled); kDead if the sync already committed.
inline Outcome commit_now(const threads::Offer& me, std::uint64_t v,
                          std::uint64_t* out) {
  if (!me.cell->try_claim()) return Outcome::kDead;
  me.cell->commit_self(me.base);
  *out = v;
  return Outcome::kCommitted;
}

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
    b.attempt = [raw](threads::Scheduler&, const threads::Offer& me,
                      std::uint64_t* out) {
      return detail::commit_now(me, raw, out);
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
    b.attempt = [us](threads::Scheduler& s, const threads::Offer& me,
                     std::uint64_t* out) {
      if (us <= 0) return detail::commit_now(me, 0, out);
      // Park an offer; the timer commits it when the deadline passes.
      s.at(s.platform().now_us() + us, me);
      return detail::Outcome::kBlocked;
    };
    b.convert = [](std::uint64_t) { return T{}; };
    e.bases_.push_back(std::move(b));
    return e;
  }

  // Extension point for external event sources (the src/io reactor): build
  // an event from one raw base.  `attempt` follows the contract of the
  // channel attempts below: poll once under your own locks, then commit
  // `me`'s sync at once (detail::commit_now), park a copy of `me` that the
  // source later commits by the offer rule (Offer::fire), or report kDead;
  // it must release any lock it takes before returning.  `convert` maps the
  // committed raw payload to the event's result.
  using AttemptFn = std::function<detail::Outcome(
      threads::Scheduler&, const threads::Offer&, std::uint64_t*)>;
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
    auto own = std::make_shared<threads::SyncCell>();
    int immediate_base = -1;

    // Preemption stays masked for the whole offer/commit sequence: a timer
    // yield in the middle would capture a second continuation for a thread
    // that may already be committed through its parked offers.
    p.mask_signal(Sig::kPreempt);
    const std::uint64_t raw = cont::callcc<std::uint64_t>(
        [&](cont::Cont<std::uint64_t> k) -> std::uint64_t {
          std::uint64_t out = 0;
          const int base = offer(sched, own, std::move(k).take_ref(), &out);
          // No safe point between a commit and the implicit throw: `out`
          // may be an unrooted heap value.  Only this path writes
          // immediate_base: a partner may already be resuming us on
          // another proc, where the check below reads it.
          if (base >= 0) {
            immediate_base = base;
            return out;
          }
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
    // Polls the base once with `me`, the offer it would park: commits
    // against a waiting partner, parks a copy of `me`, or reports that this
    // sync is already dead.  Releases any source lock before returning.
    AttemptFn attempt;
    std::function<T(std::uint64_t)> convert;
  };

  // One offering pass of sync: polls the bases in pseudo-random order,
  // returning the index of the first that commits immediately (its payload
  // in *out), or -1 once every base parked an offer or one reported this
  // sync dead.  The polling order and `k` die with this frame, before sync's
  // body dispatches.
  int offer(threads::Scheduler& sched,
            const std::shared_ptr<threads::SyncCell>& own, cont::ContRef k,
            std::uint64_t* out) {
    Platform& p = sched.platform();
    threads::Offer me{.cell = own, .k = std::move(k), .tid = sched.id()};
    std::vector<std::size_t> order(bases_.size());
    for (std::size_t i = 0; i < order.size(); i++) order[i] = i;
    for (std::size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[p.rng().below(i)]);
    }
    for (const std::size_t i : order) {
      me.base = static_cast<int>(i);
      const auto oc = bases_[i].attempt(sched, me, out);
      if (oc == detail::Outcome::kCommitted) return me.base;
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
    b.attempt = [this, raw, rooted](threads::Scheduler& sched,
                                    const threads::Offer& me,
                                    std::uint64_t* out) {
      threads::Offer mine = me;
      mine.raw = raw;
      mine.root = rooted;  // a parked send shares the event's root
      return attempt(sched, std::move(mine), sndrs_, rcvrs_, out);
    };
    b.convert = [](std::uint64_t) { return cont::Unit{}; };
    e.bases_.push_back(std::move(b));
    return e;
  }

  // The event of receiving a value from this channel.
  Event<T> recv_event() {
    Event<T> e;
    typename Event<T>::Base b;
    b.attempt = [this](threads::Scheduler& sched, const threads::Offer& me,
                       std::uint64_t* out) {
      return attempt(sched, me, rcvrs_, sndrs_, out);
    };
    b.convert = [](std::uint64_t bits) {
      return cont::detail::decode_slot<T>(bits);
    };
    e.bases_.push_back(std::move(b));
    return e;
  }

  threads::Scheduler& scheduler() { return sched_; }

 private:
  // One side of the rendezvous: `mine` is this side's list (senders or
  // receivers) and `theirs` the partner side's.  Commits `me` against the
  // oldest live partner offer that is not its own sync's, parks `me` on
  // `mine`, or reports its sync dead.  The sender's payload crosses to the
  // receiver; the sender gets unit.
  detail::Outcome attempt(threads::Scheduler& sched, threads::Offer me,
                          threads::OfferList& mine, threads::OfferList& theirs,
                          std::uint64_t* out) {
    Platform& p = sched.platform();
    const bool sending = &mine == &sndrs_;
    p.lock(ch_lock_);
    for (;;) {
      if (me.cell->synched()) {
        p.unlock(ch_lock_);
        return detail::Outcome::kDead;
      }
      std::optional<threads::Offer> cand = theirs.take(me.cell.get());
      if (!cand) {
        mine.push(std::move(me));
        p.unlock(ch_lock_);
        MPNJ_METRIC_COUNT(kCmlOffersParked, 1);
        return detail::Outcome::kBlocked;
      }
      threads::SyncSt found;
      for (;;) {
        if (!me.cell->try_claim()) {
          // We were committed through a parked offer on another source; put
          // the candidate back (the fix to Figure 5's dropped sender).
          theirs.put_back(std::move(*cand));
          p.unlock(ch_lock_);
          return detail::Outcome::kDead;
        }
        found = cand->cell->try_commit_partner(cand->base);
        if (found != threads::SyncSt::kClaimed) break;
        // Its owner is examining a candidate too, perhaps our offer on
        // another channel: two selects crossing on two channels would wait
        // on each other's claim forever.  Never wait holding ours.
        me.cell->retract();
        p.work(5);
      }
      if (found == threads::SyncSt::kSynched) {
        me.cell->retract();
        MPNJ_METRIC_COUNT(kCmlSelectRetries, 1);
        continue;  // candidate died while we claimed; try the next one
      }
      me.cell->commit_self(me.base);
      p.unlock(ch_lock_);
      if (sending) {
        MPNJ_METRIC_COUNT(kCmlSends, 1);
        // The paper's reschedule_thread: the receiver's 'a cont plus the
        // value become a resumable thread (preload + enqueue here).
        cand->resume(sched, me.payload(), me.traced());
        *out = 0;
      } else {
        MPNJ_METRIC_COUNT(kCmlRecvs, 1);
        cand->resume(sched);
        // Read the payload last: the sender's root is still registered, so
        // a collection at the reschedule's safe points kept it current.
        *out = cand->payload();
      }
      return detail::Outcome::kCommitted;
    }
  }

  threads::Scheduler& sched_;
  MutexLock ch_lock_;
  threads::OfferList sndrs_;
  threads::OfferList rcvrs_;
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
