#include "sim/domain.h"

#include <algorithm>
#include <utility>

namespace bolot::sim {

namespace {
/// a + b without wrapping past kNever (a is a time that may be kNever,
/// b is a non-negative lookahead).
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  return a > Domain::kNever - b ? Domain::kNever : a + b;
}
}  // namespace

bool Domain::advance(SimTime end, std::size_t max_events,
                     const std::vector<Link*>& links_by_uid) {
  const std::int64_t end_ns = end.count_nanos();

  // Read each source's safe time BEFORE draining its channel: any handoff
  // emitted before that publish is then either in the ring (drained into
  // the staging heap now) or in the producer's spill (which capped the
  // safe time we just read).  The reverse order could miss a handoff that
  // lands between the drain and the read, with a frontier that already
  // advertised it.
  std::int64_t horizon = kNever;
  for (Inbound& in : inbound_) {
    const std::int64_t s = in.source->safe_ns_.load(std::memory_order_acquire);
    Handoff h;
    while (in.channel->pop(h)) staged_.push(h);
    horizon = std::min(horizon, saturating_add(s, in.lookahead_ns));
  }

  // Execute everything provably safe: strictly before the horizon (an
  // upstream event AT the horizon could still emit a handoff arriving
  // exactly there) and at or before end (run_until is end-inclusive, like
  // the sequential kernel).  Handoff-vs-local timestamp ties dispatch the
  // handoff first.
  std::size_t executed = 0;
  while (executed < max_events) {
    const std::int64_t t_local = sim_.pending_events() > 0
                                     ? sim_.next_event_time().count_nanos()
                                     : kNever;
    const std::int64_t t_hand =
        staged_.empty() ? kNever : staged_.top().at.count_nanos();
    const std::int64_t t = std::min(t_local, t_hand);
    if (t > end_ns || t >= horizon) break;
    if (t_hand <= t_local) {
      Handoff h = staged_.top();
      staged_.pop();
      sim_.dispatch_external(h.at, [&] {
        links_by_uid[h.link]->deliver_remote(h.at, std::move(h.packet));
      });
      ++stats_.handoffs;
    } else {
      sim_.dispatch_next();
    }
    ++executed;
  }
  ++stats_.advances;
  if (executed == 0) ++stats_.empty_advances;

  // Publish the new safe time: this domain's next action can be no
  // earlier than min(next local event, next staged handoff, horizon) —
  // the horizon term covers handoffs upstream has not emitted yet —
  // capped by any outbound handoffs still invisible in a spill.
  const std::int64_t t_local = sim_.pending_events() > 0
                                   ? sim_.next_event_time().count_nanos()
                                   : kNever;
  const std::int64_t t_hand =
      staged_.empty() ? kNever : staged_.top().at.count_nanos();
  std::int64_t bound = std::min({t_local, t_hand, horizon});
  bool spills_empty = true;
  for (SpscChannel* out : outbound_) {
    out->flush();
    bound = std::min(bound, out->spill_bound_ns());
    spills_empty = spills_empty && out->spill_empty();
  }
  const std::int64_t prev = safe_ns_.load(std::memory_order_relaxed);
  const bool rose = bound > prev;
  if (rose) safe_ns_.store(bound, std::memory_order_release);

  // Nothing left at or before end, no inbound can produce anything at or
  // before end, and everything we emitted is visible: this domain is done
  // for the slice.  All four terms are monotone within the slice, so the
  // flag is stable once set.
  done_.store(t_local > end_ns && t_hand > end_ns && horizon > end_ns &&
                  spills_empty,
              std::memory_order_release);
  return executed > 0 || rose;
}

}  // namespace bolot::sim
