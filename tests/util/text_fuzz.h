// Seeded mutations of line-oriented text files, shared by the parser
// fuzzers (delivery schedules, probe-trace CSV).  Each mutation is a
// small edit a corrupted or hand-edited file could carry: a flipped bit,
// an inserted or deleted byte, a duplicated, swapped or dropped line, a
// truncation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace bolot::fuzz {

/// Bytes a mutation inserts: the characters the parsers give meaning to,
/// plus a few they must refuse.
inline constexpr std::string_view kFuzzAlphabet =
    "0123456789-+.,=# \n\r\txe_abcdnsv";

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// Applies one random edit to `text`.
inline void mutate_once(Rng& rng, std::string& text) {
  auto lines = split_lines(text);
  switch (rng.uniform_int(7)) {
    case 0:  // flip one bit
      if (!text.empty()) {
        const auto bit = rng.uniform_int(text.size() * 8);
        text[bit / 8] = static_cast<char>(text[bit / 8] ^ (1 << (bit % 8)));
      }
      return;
    case 1:  // insert one byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.uniform_int(text.size() + 1)),
                  kFuzzAlphabet[rng.uniform_int(kFuzzAlphabet.size())]);
      return;
    case 2:  // delete a short run of bytes
      if (!text.empty()) {
        const auto at = rng.uniform_int(text.size());
        text.erase(at, 1 + rng.uniform_int(4));
      }
      return;
    case 3:  // truncate
      text.resize(rng.uniform_int(text.size() + 1));
      return;
    case 4:  // duplicate a line
      if (!lines.empty()) {
        const auto i = rng.uniform_int(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      }
      break;
    case 5:  // swap two lines
      if (!lines.empty()) {
        std::swap(lines[rng.uniform_int(lines.size())],
                  lines[rng.uniform_int(lines.size())]);
      }
      break;
    default:  // drop a line
      if (!lines.empty()) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_int(lines.size())));
      }
      break;
  }
  text = join_lines(lines);
}

/// 1-4 random edits.
inline std::string mutate(Rng& rng, std::string text) {
  const auto edits = 1 + rng.uniform_int(4);
  for (std::uint64_t e = 0; e < edits; ++e) mutate_once(rng, text);
  return text;
}

/// A random int64 written in decimal: usually small, now and then at or
/// near either end of the range.
inline std::int64_t fuzz_int(Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0:
      return INT64_MAX - static_cast<std::int64_t>(rng.uniform_int(3));
    case 1:
      return INT64_MIN + static_cast<std::int64_t>(rng.uniform_int(3));
    default:
      return static_cast<std::int64_t>(rng.uniform_int(2'000'000'000)) -
             1'000'000'000;
  }
}

}  // namespace bolot::fuzz
