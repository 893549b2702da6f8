// Seeded mutation fuzz of the delivery-schedule parser: schedule files
// are recorded on other machines and edited by hand, so every malformed
// file must be rejected with std::invalid_argument — never accepted in
// part, never read past a buffer or overflowed (the sanitizer build runs
// this test, where either fails it outright).  Inputs are valid schedule
// files under random byte and line edits, plus edits known to make the
// file malformed, which must throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel.h"
#include "tests/util/text_fuzz.h"
#include "util/rng.h"

namespace bolot::sim {
namespace {

constexpr int kCases = 20000;

struct ScheduleFile {
  std::vector<std::int64_t> opportunities;  // ns, sorted, first >= 0
  std::optional<std::int64_t> period;       // ns; nullopt = default
  std::int64_t bytes = 1514;

  std::string text() const {
    std::string out = "# bolot-schedule v1\n# bytes_per_opportunity=" +
                      std::to_string(bytes);
    if (period) out += " period_ns=" + std::to_string(*period);
    out += '\n';
    for (std::int64_t t : opportunities) out += std::to_string(t) + '\n';
    return out;
  }
};

ScheduleFile random_schedule(Rng& rng) {
  ScheduleFile file;
  std::int64_t t = static_cast<std::int64_t>(rng.uniform_int(1'000'000));
  const auto n = 1 + rng.uniform_int(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    file.opportunities.push_back(t);
    t += static_cast<std::int64_t>(rng.uniform_int(10'000'000));
  }
  if (rng.chance(0.5)) {
    file.period = file.opportunities.back() + 1 +
                  static_cast<std::int64_t>(rng.uniform_int(10'000'000));
  }
  file.bytes = 1 + static_cast<std::int64_t>(rng.uniform_int(9000));
  return file;
}

std::string write(const DeliverySchedule& schedule) {
  std::ostringstream out;
  schedule.write(out);
  return out.str();
}

/// Parses `text`; nullopt when it is rejected.  Any exception other than
/// std::invalid_argument escapes and fails the test.
std::optional<DeliverySchedule> parse(const std::string& text) {
  std::istringstream in(text);
  try {
    return DeliverySchedule::parse(in);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// The parser's contract on one input: rejected with invalid_argument, or
/// accepted as a valid schedule whose canonical form parses back to
/// itself.
void check_text(const std::string& text) {
  const auto parsed = parse(text);
  if (!parsed) return;
  ASSERT_NO_THROW(parsed->validate()) << text;
  const std::string once = write(*parsed);
  const auto again = parse(once);
  ASSERT_TRUE(again.has_value()) << once;
  ASSERT_EQ(write(*again), once);
}

TEST(ScheduleFuzzTest, ValidFilesParseExactly) {
  Rng rng(0x5C4ED);
  for (int i = 0; i < 2000; ++i) {
    const ScheduleFile file = random_schedule(rng);
    const auto parsed = parse(file.text());
    ASSERT_TRUE(parsed.has_value()) << file.text();
    ASSERT_EQ(parsed->size(), file.opportunities.size());
    for (std::size_t k = 0; k < file.opportunities.size(); ++k) {
      ASSERT_EQ(parsed->opportunities[k].count_nanos(), file.opportunities[k]);
    }
    if (file.period) {
      ASSERT_EQ(parsed->period.count_nanos(), *file.period);
    }
    ASSERT_EQ(parsed->bytes_per_opportunity, file.bytes);
  }
}

TEST(ScheduleFuzzTest, MutatedFilesAreRejectedOrParsedConsistently) {
  Rng rng(0xF022);
  for (int i = 0; i < kCases; ++i) {
    check_text(fuzz::mutate(rng, random_schedule(rng).text()));
    if (HasFatalFailure()) return;
  }
}

TEST(ScheduleFuzzTest, RandomTextIsRejectedOrParsedConsistently) {
  Rng rng(0x7E47);
  for (int i = 0; i < kCases; ++i) {
    std::string text;
    const auto length = rng.uniform_int(80);
    for (std::uint64_t b = 0; b < length; ++b) {
      text += fuzz::kFuzzAlphabet[rng.uniform_int(fuzz::kFuzzAlphabet.size())];
    }
    check_text(text);
    if (HasFatalFailure()) return;
  }
}

TEST(ScheduleFuzzTest, ExtremeValuesAreRejectedOrParsedConsistently) {
  // Opportunity times anywhere in int64, with and without a period: the
  // default-period arithmetic must neither overflow nor accept garbage.
  Rng rng(0xE87);
  for (int i = 0; i < kCases; ++i) {
    ScheduleFile file;
    const auto n = 1 + rng.uniform_int(4);
    for (std::uint64_t k = 0; k < n; ++k) {
      file.opportunities.push_back(fuzz::fuzz_int(rng));
    }
    if (rng.chance(0.3)) file.period = fuzz::fuzz_int(rng);
    if (rng.chance(0.3)) file.bytes = fuzz::fuzz_int(rng);
    check_text(file.text());
    if (HasFatalFailure()) return;
  }
}

/// One edit that makes a valid file malformed.
std::string break_schedule(Rng& rng, ScheduleFile file) {
  auto lines = fuzz::split_lines(file.text());
  const std::size_t first = 2;  // opportunity lines follow two headers
  const std::size_t pick =
      first + rng.uniform_int(file.opportunities.size());
  switch (rng.uniform_int(9)) {
    case 0: {  // trailing bytes after a number
      const char* junk[] = {"x", " ", "\r", ".5", "e3", "-", ",0"};
      lines[pick] += junk[rng.uniform_int(7)];
      return fuzz::join_lines(lines);
    }
    case 1:  // leading bytes before a number
      lines[pick] = (rng.chance(0.5) ? "+" : " ") + lines[pick];
      return fuzz::join_lines(lines);
    case 2:  // out of int64 range
      lines[pick] = rng.chance(0.5) ? "9223372036854775808"
                                    : "-9223372036854775809";
      return fuzz::join_lines(lines);
    case 3:  // negative first opportunity
      file.opportunities.front() = -1 - file.opportunities.front();
      return file.text();
    case 4:  // unsorted: a later, larger opportunity moves to the front
      file.opportunities.push_back(file.opportunities.back() + 1);
      std::swap(file.opportunities.front(), file.opportunities.back());
      return file.text();
    case 5:  // period not past the last opportunity
      file.period = file.opportunities.back() -
                    static_cast<std::int64_t>(rng.uniform_int(3));
      return file.text();
    case 6:  // non-positive byte budget
      file.bytes = -static_cast<std::int64_t>(rng.uniform_int(3));
      return file.text();
    case 7: {  // a header value that is not a whole number
      std::string text = file.text();
      const auto at = text.find("bytes_per_opportunity=") + 22;
      text.insert(at + rng.uniform_int(2), "q");
      return text;
    }
    default:  // the default period would overflow int64
      file.period.reset();
      file.opportunities = {INT64_MAX - static_cast<std::int64_t>(
                                            rng.uniform_int(2))};
      return file.text();
  }
}

TEST(ScheduleFuzzTest, KnownMalformedEditsAlwaysThrow) {
  Rng rng(0xBAD5);
  for (int i = 0; i < kCases; ++i) {
    const std::string text = break_schedule(rng, random_schedule(rng));
    std::istringstream in(text);
    ASSERT_THROW(DeliverySchedule::parse(in), std::invalid_argument) << text;
  }
}

TEST(ScheduleFuzzTest, EmptyAndHeaderOnlyFilesThrow) {
  for (const char* text : {"", "\n\n", "# bolot-schedule v1\n",
                           "# period_ns=100\n# bytes_per_opportunity=5\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(DeliverySchedule::parse(in), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace bolot::sim
