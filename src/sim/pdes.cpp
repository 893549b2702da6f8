#include "sim/pdes.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bolot::sim {

namespace {

/// Idle passes that spin in place before a worker starts yielding its
/// core: a neighbor's batch usually publishes within microseconds.
constexpr std::size_t kSpinIdlePasses = 64;

/// Hardware threads of the host; "unbounded" when the host will not say.
std::size_t host_threads() {
  static const std::size_t threads = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? std::numeric_limits<std::size_t>::max()
                  : std::size_t{n};
  }();
  return threads;
}

/// A short busy-wait that tells the core this is a spin loop.
void cpu_relax() {
  for (int i = 0; i < 16; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
}

std::mutex& donor_mutex() {
  static std::mutex m;
  return m;
}

ParallelSimulation::ThreadDonor& donor_slot() {
  static ParallelSimulation::ThreadDonor donor;
  return donor;
}

/// Shared between run_until and the donated helper jobs, so a helper that
/// fires after the run (or after the ParallelSimulation is gone) exits
/// without touching freed state.
struct DriveState {
  ParallelSimulation* owner = nullptr;
  SimTime end;
  std::mutex mutex;
  std::condition_variable cv;
  int active = 0;
  bool expired = false;
};

}  // namespace

void ParallelSimulation::set_thread_donor(ThreadDonor donor) {
  std::lock_guard<std::mutex> lock(donor_mutex());
  donor_slot() = std::move(donor);
}

ParallelSimulation::ParallelSimulation(std::size_t domains) {
  if (domains == 0) {
    throw std::invalid_argument("ParallelSimulation: need at least 1 domain");
  }
  for (std::size_t i = 0; i < domains; ++i) domains_.emplace_back();
}

void ParallelSimulation::attach(Network& net,
                                const std::vector<std::size_t>& node_domain) {
  if (attached_) {
    throw std::logic_error("ParallelSimulation: attach called twice");
  }
  if (node_domain.size() != net.node_count()) {
    throw std::invalid_argument(
        "ParallelSimulation: node_domain must cover every node");
  }
  for (std::size_t d : node_domain) {
    if (d >= domains_.size()) {
      throw std::invalid_argument("ParallelSimulation: domain out of range");
    }
  }
  // One domain cuts nothing and runs no threads: nothing to wire, and the
  // routes stay as the caller computed them (the sequential kernel).
  if (domains_.size() == 1) {
    attached_ = true;
    return;
  }
  net.compute_routes();  // freeze routing before threads exist

  links_by_uid_.resize(net.link_count());
  const std::size_t n_domains = domains_.size();
  // Pass 1: find the cut pairs and each pair's lookahead (min propagation
  // over its links — the conservative bound the safe-time protocol uses).
  constexpr std::int64_t kNoPair = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> pair_lookahead(n_domains * n_domains, kNoPair);
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    links_by_uid_[i] = &net.link_at(i);
    const std::size_t sd = node_domain[net.link_source(i)];
    const std::size_t td = node_domain[net.link_target(i)];
    if (sd == td) continue;
    const std::int64_t prop =
        net.link_at(i).config().propagation.count_nanos();
    if (prop <= 0) {
      throw std::invalid_argument(
          "ParallelSimulation: cut link '" + net.link_at(i).config().name +
          "' has no propagation delay (zero lookahead); repartition or run "
          "with one domain");
    }
    std::int64_t& la = pair_lookahead[sd * n_domains + td];
    la = std::min(la, prop);
  }
  // Pass 2: one channel per cut pair, wired into both endpoint domains.
  std::vector<SpscChannel*> pair_channel(n_domains * n_domains, nullptr);
  for (std::size_t sd = 0; sd < n_domains; ++sd) {
    for (std::size_t td = 0; td < n_domains; ++td) {
      const std::int64_t la = pair_lookahead[sd * n_domains + td];
      if (la == kNoPair) continue;
      channels_.emplace_back();
      SpscChannel& chan = channels_.back();
      chan.set_lookahead(Duration::nanos(la));
      pair_channel[sd * n_domains + td] = &chan;
      domains_[sd].outbound_.push_back(&chan);
      domains_[td].inbound_.push_back(
          Domain::Inbound{&chan, &domains_[sd], la});
    }
  }
  // Pass 3: route each cut link's egress into its pair's channel.  The
  // per-link stamp starts at 0 and lives in the closure — it is the FIFO
  // tiebreak for same-nanosecond handoffs on one link.
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const std::size_t sd = node_domain[net.link_source(i)];
    const std::size_t td = node_domain[net.link_target(i)];
    if (sd == td) continue;
    SpscChannel* chan = pair_channel[sd * n_domains + td];
    net.link_at(i).set_remote_egress(
        [chan, uid = static_cast<std::uint32_t>(i),
         stamp = std::uint64_t{0}](SimTime at, Packet&& p) mutable {
          chan->push(Handoff{at, uid, stamp++, std::move(p)});
        });
  }
  attached_ = true;
}

void ParallelSimulation::drive(SimTime end) {
  // Ownership keeps each domain's heap, staging queue and channels in one
  // core's cache: participant k drives the domains i with i % n == k,
  // where n counts the participants so far (a late arrival takes its
  // share from the next pass on).  Only after kStealAfterIdlePasses
  // fruitless passes does a worker claim others' domains too — which
  // keeps the run live when an owner is descheduled.  An owner needs a
  // core of its own: once the participants fill the host's hardware
  // threads, some owner is always off-CPU and its domains would sit out
  // the steal threshold, so every worker claims any domain.
  const std::size_t me = participants_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cores = host_threads();
  std::size_t idle_passes = 0;
  while (true) {
    const std::size_t n = participants_.load(std::memory_order_relaxed);
    const bool steal = n >= cores || idle_passes >= kStealAfterIdlePasses;
    bool all_done = true;
    bool progress = false;
    for (std::size_t i = 0; i < domains_.size(); ++i) {
      Domain& d = domains_[i];
      if (d.done_.load(std::memory_order_acquire)) continue;
      all_done = false;
      const bool mine = i % n == me;
      if (!(mine || steal) || !d.try_claim()) continue;
      if (!d.done_.load(std::memory_order_relaxed)) {
        if (!mine) ++d.stats_.stolen_advances;
        progress |= d.advance(end, kBatchEvents, links_by_uid_);
      }
      d.release();
    }
    if (all_done) return;
    if (progress) {
      idle_passes = 0;
    } else if (++idle_passes < kSpinIdlePasses) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ParallelSimulation::run_until(SimTime end) {
  if (domains_.size() == 1) {
    // The sequential kernel itself: no horizon, no batching, no donors.
    domains_.front().sim_.run_until(end);
    return;
  }
  for (Domain& d : domains_) d.done_.store(false, std::memory_order_relaxed);
  participants_.store(0, std::memory_order_relaxed);

  ThreadDonor donor;
  {
    std::lock_guard<std::mutex> lock(donor_mutex());
    donor = donor_slot();
  }
  std::shared_ptr<DriveState> state;
  if (donor && domains_.size() > 1) {
    state = std::make_shared<DriveState>();
    state->owner = this;
    state->end = end;
    for (std::size_t i = 1; i < domains_.size(); ++i) {
      donor([state] {
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (state->expired) return;
          ++state->active;
        }
        state->owner->drive(state->end);
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          --state->active;
        }
        state->cv.notify_all();
      });
    }
  }

  drive(end);

  if (state) {
    // Late helpers must never touch this object again: mark the state
    // expired (jobs not yet started bail out) and wait out the ones
    // already inside drive().
    std::unique_lock<std::mutex> lock(state->mutex);
    state->expired = true;
    state->cv.wait(lock, [&] { return state->active == 0; });
  }

  // Match Simulator::run_until's tail: an idle domain still reports
  // now() == end.
  for (Domain& d : domains_) d.sim_.advance_to(end);
}

std::uint64_t ParallelSimulation::events_dispatched() const {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.simulator().events_dispatched();
  return total;
}

std::vector<DomainStats> ParallelSimulation::domain_stats() const {
  std::vector<DomainStats> stats;
  stats.reserve(domains_.size());
  for (const Domain& d : domains_) {
    stats.push_back(d.stats_);
    stats.back().events = d.simulator().events_dispatched();
  }
  return stats;
}

void ParallelSimulation::audit_verify() const {
  for (const Domain& d : domains_) d.simulator().audit_verify();
}

}  // namespace bolot::sim
