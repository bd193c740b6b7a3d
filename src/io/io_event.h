#pragma once

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
      [impl](threads::Scheduler&, const threads::Offer& me,
             std::uint64_t* out) {
        if (impl->poll_readable()) return cml::detail::commit_now(me, 0, out);
        // Park the offer: readiness commits it exactly like a channel
        // partner or a timer would.  A fire after the sync committed
        // elsewhere loses the commit and does nothing, and the stream's
        // offer list prunes the dead offer.
        impl->on_readable(me);
        return cml::detail::Outcome::kBlocked;
      },
      [](std::uint64_t) { return cont::Unit{}; });
}

}  // namespace mp::io
