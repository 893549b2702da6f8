// Seeded mutation fuzz of the probe-trace CSV reader: traces are
// collected on one machine and analyzed on another, so every malformed
// file must be rejected with std::runtime_error — never accepted in part,
// never read past a buffer (the sanitizer build runs this test, where an
// out-of-bounds read fails it outright).  Inputs are valid traces under
// random byte and line edits, plus edits known to make the file
// malformed, which must throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "tests/util/text_fuzz.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

constexpr int kCases = 20000;
constexpr std::size_t kHeaderLines = 3;  // magic, metadata, column names

ProbeTrace random_trace(Rng& rng) {
  ProbeTrace trace;
  trace.delta = Duration::nanos(fuzz::fuzz_int(rng));
  trace.probe_wire_bytes = fuzz::fuzz_int(rng);
  trace.clock_tick = Duration::nanos(fuzz::fuzz_int(rng));
  const auto n = 1 + rng.uniform_int(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    ProbeRecord record;
    record.seq = i;
    record.send_time = Duration::nanos(fuzz::fuzz_int(rng));
    record.received = rng.chance(0.8);
    record.rtt = Duration::nanos(fuzz::fuzz_int(rng));
    record.echo_time = Duration::nanos(fuzz::fuzz_int(rng));
    trace.records.push_back(record);
  }
  return trace;
}

std::string write(const ProbeTrace& trace) {
  std::ostringstream out;
  write_trace_csv(out, trace);
  return out.str();
}

/// Reads `text`; nullopt when it is rejected.  Any exception other than
/// std::runtime_error escapes and fails the test.
std::optional<ProbeTrace> read(const std::string& text) {
  std::istringstream in(text);
  try {
    return read_trace_csv(in);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// The reader's contract on one input: rejected with runtime_error, or
/// accepted as a dense trace whose canonical form reads back to itself.
void check_text(const std::string& text) {
  const auto parsed = read(text);
  if (!parsed) return;
  for (std::size_t i = 0; i < parsed->records.size(); ++i) {
    ASSERT_EQ(parsed->records[i].seq, i) << text;
  }
  const std::string once = write(*parsed);
  const auto again = read(once);
  ASSERT_TRUE(again.has_value()) << once;
  ASSERT_EQ(write(*again), once);
}

TEST(TraceIoFuzzTest, RandomTracesRoundTripExactly) {
  Rng rng(0x7ACE);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = write(random_trace(rng));
    const auto parsed = read(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_EQ(write(*parsed), text);
  }
}

TEST(TraceIoFuzzTest, MutatedTracesAreRejectedOrParsedConsistently) {
  Rng rng(0xF0221);
  for (int i = 0; i < kCases; ++i) {
    check_text(fuzz::mutate(rng, write(random_trace(rng))));
    if (HasFatalFailure()) return;
  }
}

TEST(TraceIoFuzzTest, RandomTextAfterValidHeaderIsRejectedOrParsed) {
  // A valid header, so the row parser is reached, then random bytes.
  const std::string header =
      "# bolot-trace v1\n"
      "# delta_ns=20000000 probe_wire_bytes=72 clock_tick_ns=0\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n";
  Rng rng(0x7E471);
  for (int i = 0; i < kCases; ++i) {
    std::string text = header;
    const auto length = rng.uniform_int(60);
    for (std::uint64_t b = 0; b < length; ++b) {
      text += fuzz::kFuzzAlphabet[rng.uniform_int(fuzz::kFuzzAlphabet.size())];
    }
    check_text(text);
    if (HasFatalFailure()) return;
  }
}

/// One edit that makes a valid trace file malformed.
std::string break_trace(Rng& rng, const ProbeTrace& trace) {
  auto lines = fuzz::split_lines(write(trace));
  const std::size_t row =
      kHeaderLines + rng.uniform_int(trace.records.size());
  std::vector<std::string> fields;
  {
    std::string cell;
    for (char c : lines[row] + ',') {
      if (c == ',') {
        fields.push_back(cell);
        cell.clear();
      } else {
        cell += c;
      }
    }
  }
  const std::size_t field = rng.uniform_int(fields.size());
  const auto join_fields = [&] {
    std::string out;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      out += (f > 0 ? "," : "") + fields[f];
    }
    return out;
  };
  switch (rng.uniform_int(10)) {
    case 0: {  // trailing bytes after a number
      const char* junk[] = {"x", " ", "\r", ".5", "e3", "-"};
      fields[field] += junk[rng.uniform_int(6)];
      break;
    }
    case 1:  // leading bytes before a number
      fields[field] = (rng.chance(0.5) ? "+" : " ") + fields[field];
      break;
    case 2:  // an empty cell
      fields[field].clear();
      break;
    case 3:  // out of int64 range
      fields[field] = rng.chance(0.5) ? "9223372036854775808"
                                      : "-9223372036854775809";
      break;
    case 4:  // a received flag other than 0 or 1
      fields[2] = rng.chance(0.5) ? "2" : "-1";
      break;
    case 5:  // one field too many or too few
      if (rng.chance(0.5)) {
        fields.push_back("0");
      } else {
        fields.pop_back();
      }
      break;
    case 6:  // a repeated row breaks the dense sequence numbers
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                   lines[row]);
      return fuzz::join_lines(lines);
    case 7: {  // a metadata key misspelled or its '=' lost
      const char* keys[] = {"delta_ns=", "probe_wire_bytes=",
                            "clock_tick_ns="};
      const std::string key = keys[rng.uniform_int(3)];
      const auto at = lines[1].find(key);
      lines[1].replace(at, key.size(),
                       rng.chance(0.5) ? key.substr(0, key.size() - 1) + ":"
                                       : "x" + key);
      return fuzz::join_lines(lines);
    }
    case 8: {  // a metadata value that is not a whole number
      const auto at = lines[1].find('=', rng.uniform_int(lines[1].size()));
      lines[1].insert((at == std::string::npos ? lines[1].find('=') : at) + 1,
                      "q");
      return fuzz::join_lines(lines);
    }
    default:  // magic or column header corrupted
      lines[rng.uniform_int(kHeaderLines) == 0 ? 0 : 2] += "x";
      return fuzz::join_lines(lines);
  }
  lines[row] = join_fields();
  return fuzz::join_lines(lines);
}

TEST(TraceIoFuzzTest, KnownMalformedEditsAlwaysThrow) {
  Rng rng(0xBAD7);
  for (int i = 0; i < kCases; ++i) {
    const std::string text = break_trace(rng, random_trace(rng));
    std::istringstream in(text);
    ASSERT_THROW(read_trace_csv(in), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace bolot::analysis
