#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "gc/roots.h"
#include "threads/scheduler.h"

// One parked offer under every event source (the paper's sndr/rcvr records
// of Figure 5, generalised).  A channel's senders and receivers, a fd's
// readiness waiters in the reactor, a pipe's readers and writers, and the
// scheduler's timers all park this record: in an OfferList, or for timers
// in a deadline heap.  An offer is one base of a CML sync, whose SyncCell
// decides which of the sync's offers commits, or, with a null cell, a plain
// parked thread.
//
// Commit rule: the source commits the offer's cell (try_commit_partner),
// preloads the payload into its continuation, and reschedules its thread
// (Offer::try_commit, then Offer::resume; Offer::fire does both).
// Dead rule: an offer is dead once its cell is synched, i.e. its sync has
// committed through another base.  A claimed offer stays live: its
// claimant may retract.  Containers drop dead offers by one prune rule
// (prune_before_push), so a select that keeps losing on a silent source
// does not pin one continuation per loss.

namespace mp::threads {

enum class SyncSt : std::uint8_t { kWaiting, kClaimed, kSynched };

// The three-state synchronizer of one CML sync (Reppy's WAITING / CLAIMED
// (transient, owned by the actively polling thread) / SYNCHED): each base
// the sync offers references it, and exactly one base commits.
struct SyncCell {
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
  // Partner side: commit a parked offer through `base`, once.  Returns the
  // state found: kWaiting means this call committed it, kClaimed that its
  // owner is examining a candidate, kSynched that it committed elsewhere.
  SyncSt try_commit_partner(int base) {
    SyncSt found = SyncSt::kWaiting;
    if (st.compare_exchange_strong(found, SyncSt::kSynched,
                                   std::memory_order_acq_rel)) {
      fired_base = base;
    }
    return found;
  }
};

struct Offer {
  std::shared_ptr<SyncCell> cell;  // null: a plain parked thread
  int base = 0;                    // the sync's base this offer stands for
  cont::ContRef k;                 // resumed with the committed payload
  int tid = 0;
  std::uint64_t raw = 0;                   // a sender's payload word...
  std::shared_ptr<gc::GlobalRoot> root{};  // ...or its GC-traced payload

  // A thread parked through Scheduler::suspend (its continuation already
  // holds unit).
  static Offer plain(ThreadState t) {
    Offer o;
    o.k = std::move(t.k);
    o.tid = t.id;
    return o;
  }

  bool dead() const { return cell != nullptr && cell->synched(); }
  bool traced() const { return root != nullptr; }
  std::uint64_t payload() const {
    return root != nullptr ? root->get().raw_bits() : raw;
  }

  // Commits the offer's sync through this base, waiting out its owner's
  // claim (the caller must hold no claim of its own); false once it has
  // committed elsewhere.  A plain offer always commits.
  bool try_commit(Platform& p) {
    if (cell == nullptr) return true;
    for (;;) {
      const SyncSt found = cell->try_commit_partner(base);
      if (found != SyncSt::kClaimed) return found == SyncSt::kWaiting;
      p.work(5);  // transient; charged so the claimant runs in the simulator
    }
  }
  // Delivers `v` and makes the committed thread runnable.  The caller holds
  // no source lock (reschedule takes the scheduler's queue locks).
  void resume(Scheduler& s, std::uint64_t v = 0, bool traced = false) {
    if (cell != nullptr) k.get()->preload(v, traced);
    s.reschedule(ThreadState{std::move(k), tid});
  }
  // The whole commit rule for sources without a payload (readiness,
  // timers): a dead offer's fire does nothing.
  void fire(Scheduler& s) {
    if (try_commit(s.platform())) resume(s);
  }
};

// The prune rule of every offer container: drop the entries of `c` that
// `dead` picks only once as many pushes have passed as `c` held after its
// last scan (`until_scan` counts them down).  Call it before each push: a
// push then costs O(1) amortized, and a container whose offers all lose
// holds at most one.  Returns whether it dropped any.
template <typename C, typename Dead>
bool prune_before_push(C& c, std::size_t& until_scan, Dead dead) {
  if (until_scan > 0) {
    until_scan--;
    return false;
  }
  const bool dropped = std::erase_if(c, dead) > 0;
  until_scan = c.size();
  return dropped;
}

// A FIFO of parked offers, guarded by its source's lock.
class OfferList {
 public:
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }

  void push(Offer o) {
    prune_before_push(q_, until_scan_, [](const Offer& x) { return x.dead(); });
    q_.push_back(std::move(o));
  }
  // Returns a taken offer to the front (its taker could not commit).
  void put_back(Offer o) { q_.push_front(std::move(o)); }

  // Removes and returns the oldest live offer that is not one of `self`'s
  // (a sync never matches its own offer), dropping dead offers on the way.
  std::optional<Offer> take(const SyncCell* self) {
    for (auto it = q_.begin(); it != q_.end();) {
      if (it->dead()) {
        it = q_.erase(it);
      } else if (self != nullptr && it->cell.get() == self) {
        ++it;
      } else {
        Offer o = std::move(*it);
        q_.erase(it);
        return o;
      }
    }
    return std::nullopt;
  }
  // Moves every offer to `out`, oldest first; the caller fires them after
  // dropping the source's lock.
  void take_all(std::vector<Offer>& out) {
    for (Offer& o : q_) out.push_back(std::move(o));
    q_.clear();
  }

 private:
  std::deque<Offer> q_;
  std::size_t until_scan_ = 0;
};

}  // namespace mp::threads
