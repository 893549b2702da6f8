// One shard of a parallel simulation (see sim/pdes.h): a Simulator plus
// the channels connecting it to its neighbor domains, advanced in bounded
// batches by the worker thread that claims it (normally its owner; see
// ParallelSimulation::drive).
//
// Synchronization is conservative lookahead without null messages.  Each
// domain publishes an atomic safe-time S: a promise that no event in this
// domain will ever execute before S again.  Because every cut edge is a
// propagation link, a handoff emitted at local time t arrives downstream
// at t + propagation >= S + lookahead — so a consumer may execute
// everything strictly before min over inbound channels of
// (S_source + lookahead), its *horizon*.  Handoffs already emitted but
// not yet visible (ring overflow spill) cap the producer's S instead
// (SpscChannel::spill_bound_ns), keeping the bound sound.
//
// Determinism: cross-domain arrivals are merged into the event stream
// from a staging heap ordered by (arrival time, global link uid, per-link
// send stamp), and at a timestamp tie with a local event the handoff goes
// first.  Both rules depend only on simulation state, never on thread
// timing, so every run — any thread count, including one — executes the
// identical event sequence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/spsc_channel.h"
#include "util/time.h"

namespace bolot::sim {

class ParallelSimulation;

/// Per-domain kernel counters, cumulative over run_until calls.  `events`
/// and `handoffs` are simulation state (identical for any worker count);
/// the advance counts describe the scheduling and vary run to run.
struct DomainStats {
  std::uint64_t events = 0;           // events dispatched in this domain
  std::uint64_t handoffs = 0;         // cross-domain arrivals dispatched
  std::uint64_t advances = 0;         // batches driven (advance calls)
  std::uint64_t empty_advances = 0;   // batches that dispatched no event
  std::uint64_t stolen_advances = 0;  // batches driven by a non-owner
};

class Domain {
 public:
  static constexpr std::int64_t kNever = SpscChannel::kNever;

  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

  /// The domain's published safe time (ns): no event here will execute
  /// before it.  Monotone; written with release ordering after a batch.
  std::int64_t safe_ns() const {
    return safe_ns_.load(std::memory_order_acquire);
  }

 private:
  friend class ParallelSimulation;

  static constexpr std::size_t kCacheLine = 64;

  struct Inbound {
    SpscChannel* channel = nullptr;
    const Domain* source = nullptr;
    std::int64_t lookahead_ns = 0;
  };

  /// Heap order for staged handoffs: earliest arrival first; ties broken
  /// by global link uid then per-link send stamp.  All three are pure
  /// simulation state — the merge order is independent of when the
  /// handoffs became visible.
  struct StagedAfter {
    bool operator()(const Handoff& a, const Handoff& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.link != b.link) return a.link > b.link;
      return a.stamp > b.stamp;
    }
  };

  /// Exclusive-execution claim: each domain has an owning worker, but a
  /// worker that has idled long enough steals, so the claim — not the
  /// ownership — is what keeps two threads out of one domain.
  bool try_claim() { return !claimed_.exchange(true, std::memory_order_acquire); }
  void release() { claimed_.store(false, std::memory_order_release); }

  /// Runs up to `max_events` events that are provably safe, then flushes
  /// outbound spill and publishes a new safe time.  Returns true if the
  /// call made progress (executed events or raised the safe time).
  /// `links_by_uid` maps Handoff::link to the Link whose deliver_remote
  /// runs in this domain.  Caller must hold the claim.
  bool advance(SimTime end, std::size_t max_events,
               const std::vector<Link*>& links_by_uid);

  Simulator sim_;
  std::vector<Inbound> inbound_;
  std::vector<SpscChannel*> outbound_;
  std::priority_queue<Handoff, std::vector<Handoff>, StagedAfter> staged_;
  /// Kernel counters (ParallelSimulation::domain_stats); written under
  /// the claim, read once the run has joined.
  DomainStats stats_;
  /// Alone on its cache line: every downstream domain reads it on each
  /// advance, while the claim below is written by the driving thread on
  /// every batch.
  alignas(kCacheLine) std::atomic<std::int64_t> safe_ns_{0};
  alignas(kCacheLine) std::atomic<bool> claimed_{false};
  /// True once this domain can do nothing more at or before `end`; only
  /// meaningful within one ParallelSimulation::run_until call (reset at
  /// entry).  Written under the claim, read by the driver loop.
  std::atomic<bool> done_{false};
};

}  // namespace bolot::sim
