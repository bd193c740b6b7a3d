#pragma once

#include <memory>

#include "cml/cml.h"
#include "io/stream.h"

// CML integration: stream readiness as a first-class event, composable
// with channel communication and timeouts through Event::choose.  A select
// can therefore race a channel send, a timer, and a socket in one sync —
// the same parked-offer commitment protocol decides the winner whichever
// source fires first.

namespace mp::io {

// The event that becomes ready when `s` is readable (data buffered or
// EOF).  The sync does not consume any bytes; the winner typically calls
// read_some next, which returns without parking.
inline cml::Event<cont::Unit> readable_event(Stream s) {
  auto impl = s.impl();
  return cml::Event<cont::Unit>::primitive(
      [impl](threads::Scheduler& sched,
             const std::shared_ptr<cml::detail::EventState>& own, int idx,
             int tid, const cont::ContRef& k,
             std::uint64_t* out) -> cml::detail::Outcome {
        if (impl->poll_readable()) {
          if (own->synched() || !own->try_claim()) {
            return cml::detail::Outcome::kDead;
          }
          own->commit_self(idx);
          *out = 0;
          return cml::detail::Outcome::kCommitted;
        }
        // Park an offer: readiness commits it exactly like a channel
        // partner or a timer would (Event::after's shape).  A stale fire —
        // the sync already committed elsewhere — loses try_commit_partner
        // and is a no-op.  Such an offer reports itself dead, so the
        // source's next registration drops it; the raw state pointer stays
        // valid because `own`, in the fire callback stored beside it, does.
        impl->on_readable(
            [impl, own, k, idx, tid, &sched] {
              if (own->try_commit_partner(idx, sched.platform())) {
                k.get()->preload(0, false);
                sched.reschedule(threads::ThreadState{k, tid});
              }
            },
            [st = own.get()] { return st->synched(); });
        return cml::detail::Outcome::kBlocked;
      },
      [](std::uint64_t) { return cont::Unit{}; });
}

}  // namespace mp::io
