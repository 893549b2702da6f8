#include "sim/channel.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/audit.h"

namespace bolot::sim {

namespace {

constexpr double kRowSumTolerance = 1e-9;

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("MarkovChannelConfig: " + what);
}

/// The whole of `text` as a base-10 int64; anything else (trailing bytes,
/// blanks, overflow) is a malformed schedule.
std::int64_t parse_schedule_int(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("DeliverySchedule: bad integer '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace

void MarkovChannelConfig::validate() const {
  const std::size_t n = states.size();
  if (n == 0) bad_config("no states");
  if (transitions.size() != n * n) {
    bad_config("transition matrix must have state_count^2 entries");
  }
  if (initial_state >= n) bad_config("initial_state out of range");
  for (const ChannelState& s : states) {
    // drop_probability is a Probability: the [0, 1] range is enforced by
    // its checked constructor, so only the delays need validating here.
    if (s.extra_delay.is_negative() || s.extra_delay_jitter.is_negative()) {
      bad_config("negative extra delay");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double t = transitions[i * n + j];
      if (!(t >= 0.0 && t <= 1.0)) bad_config("transition outside [0, 1]");
      row += t;
    }
    if (std::abs(row - 1.0) > kRowSumTolerance) {
      bad_config("transition row does not sum to 1");
    }
  }
}

MarkovChannelConfig MarkovChannelConfig::gilbert_elliott(
    Probability p, Probability q, Probability good_drop, Probability bad_drop,
    Duration bad_extra_delay) {
  MarkovChannelConfig config;
  config.states = {
      ChannelState{good_drop, Duration::zero(), Duration::zero()},
      ChannelState{bad_drop, bad_extra_delay, Duration::zero()},
  };
  config.transitions = {p.complement().value(), p.value(), q.value(),
                        q.complement().value()};
  config.initial_state = 0;
  config.validate();
  return config;
}

MarkovChannelConfig MarkovChannelConfig::from_gilbert_fit(
    const analysis::GilbertFit& fit) {
  if (fit.degenerate) {
    bad_config("cannot build a channel from a degenerate Gilbert fit "
               "(the measured sequence never left one state)");
  }
  return gilbert_elliott(Probability::checked(fit.p),
                         Probability::checked(fit.q));
}

MarkovChannelConfig MarkovChannelConfig::from_loss_targets(
    Probability ulp, double plg, Duration bad_extra_delay) {
  if (ulp.is_zero() || ulp >= Probability::one()) {
    bad_config("target ulp must be in (0, 1)");
  }
  if (!(plg >= 1.0)) bad_config("target plg must be >= 1");
  const double q = 1.0 / plg;
  const double p = q * ulp.value() / (1.0 - ulp.value());
  if (p > 1.0) bad_config("target (ulp, plg) pair is infeasible: p > 1");
  return gilbert_elliott(Probability::checked(p), Probability::checked(q),
                         Probability::zero(), Probability::one(),
                         bad_extra_delay);
}

MarkovChannel::MarkovChannel(const MarkovChannelConfig& config, Rng rng)
    : states_(config.states),
      cumulative_(config.states.size() * config.states.size()),
      state_(config.initial_state),
      rng_(rng),
      packets_(config.states.size(), 0),
      drops_(config.states.size(), 0) {
  config.validate();
  const std::size_t n = states_.size();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += config.transitions[i * n + j];
      cumulative_[i * n + j] = acc;
    }
    // Guard the scan against rounding: the last entry is an exact 1 so a
    // uniform draw in [0, 1) always lands inside the row.
    cumulative_[i * n + (n - 1)] = 1.0;
  }
}

MarkovChannel::Verdict MarkovChannel::advance() {
  const std::size_t n = states_.size();
  if (n > 1) {
    const double u = rng_.uniform();
    const double* row = &cumulative_[state_ * n];
    std::size_t next = 0;
    while (next + 1 < n && u >= row[next]) ++next;
    state_ = next;
  }
  ++packets_[state_];
  const ChannelState& s = states_[state_];
  Verdict verdict;
  if (s.drop_probability >= Probability::one() ||
      rng_.chance(s.drop_probability.value())) {
    verdict.drop = true;
    ++drops_[state_];
    return verdict;
  }
  verdict.extra_delay = s.extra_delay;
  if (!s.extra_delay_jitter.is_zero()) {
    verdict.extra_delay += rng_.exponential_time(s.extra_delay_jitter);
  }
  return verdict;
}

std::uint64_t MarkovChannel::total_packets() const {
  return std::accumulate(packets_.begin(), packets_.end(), std::uint64_t{0});
}

std::uint64_t MarkovChannel::total_drops() const {
  return std::accumulate(drops_.begin(), drops_.end(), std::uint64_t{0});
}

void MarkovChannel::audit_verify() const {
  SIM_CHECK(state_ < states_.size(), "channel state %zu out of range (%zu)",
            state_, states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    SIM_CHECK(drops_[i] <= packets_[i],
              "channel state %zu dropped %llu of %llu packets", i,
              static_cast<unsigned long long>(drops_[i]),
              static_cast<unsigned long long>(packets_[i]));
  }
}

void DeliverySchedule::validate() const {
  if (opportunities.empty()) {
    throw std::invalid_argument("DeliverySchedule: no opportunities");
  }
  if (opportunities.front().is_negative()) {
    throw std::invalid_argument("DeliverySchedule: negative opportunity time");
  }
  for (std::size_t i = 1; i < opportunities.size(); ++i) {
    if (opportunities[i] < opportunities[i - 1]) {
      throw std::invalid_argument("DeliverySchedule: opportunities unsorted");
    }
  }
  if (period <= opportunities.back()) {
    throw std::invalid_argument(
        "DeliverySchedule: period must exceed the last opportunity");
  }
  if (bytes_per_opportunity <= 0) {
    throw std::invalid_argument(
        "DeliverySchedule: bytes_per_opportunity must be positive");
  }
}

DeliverySchedule DeliverySchedule::parse(std::istream& is) {
  DeliverySchedule schedule;
  bool have_period = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string token;
      while (header >> token) {
        if (token.rfind("bytes_per_opportunity=", 0) == 0) {
          schedule.bytes_per_opportunity =
              parse_schedule_int(token.substr(token.find('=') + 1));
        } else if (token.rfind("period_ns=", 0) == 0) {
          schedule.period = Duration::nanos(
              parse_schedule_int(token.substr(token.find('=') + 1)));
          have_period = true;
        }
      }
      continue;
    }
    schedule.opportunities.push_back(Duration::nanos(parse_schedule_int(line)));
  }
  if (schedule.opportunities.empty()) {
    throw std::invalid_argument("DeliverySchedule: empty schedule file");
  }
  const Duration first = schedule.opportunities.front();
  const Duration last = schedule.opportunities.back();
  // A negative or unsorted trace gets no default period: validate()
  // rejects it below, and the span arithmetic could overflow on it.
  if (!have_period && !first.is_negative() && first <= last) {
    // Default period: one mean inter-opportunity gap of silence after the
    // last opportunity, so the replayed cycle keeps the trace's mean rate.
    const Duration span = last - first;
    Duration gap = schedule.opportunities.size() > 1
                       ? span / static_cast<std::int64_t>(
                                    schedule.opportunities.size() - 1)
                       : Duration::millis(1.0);
    if (gap.is_zero()) gap = Duration::nanos(1);
    if (last.count_nanos() >
        std::numeric_limits<std::int64_t>::max() - gap.count_nanos()) {
      throw std::invalid_argument(
          "DeliverySchedule: default period overflows; give period_ns");
    }
    schedule.period = last + gap;
  }
  schedule.validate();
  return schedule;
}

DeliverySchedule DeliverySchedule::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("DeliverySchedule: cannot open " + path);
  }
  return parse(file);
}

void DeliverySchedule::write(std::ostream& os) const {
  os << "# bolot-schedule v1\n";
  os << "# bytes_per_opportunity=" << bytes_per_opportunity
     << " period_ns=" << period.count_nanos() << "\n";
  for (const Duration& t : opportunities) {
    os << t.count_nanos() << "\n";
  }
}

void DeliverySchedule::save(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("DeliverySchedule: cannot write " + path);
  }
  write(file);
}

}  // namespace bolot::sim
