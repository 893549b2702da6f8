#include "analysis/trace_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace bolot::analysis {

namespace {

constexpr std::string_view kMagic = "# bolot-trace v1";

std::int64_t parse_int(std::string_view text, const char* what) {
  std::int64_t value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error(std::string("trace csv: bad ") + what + " '" +
                             std::string(text) + "'");
  }
  return value;
}

std::vector<std::string_view> split(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == sep) {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// Extracts the value of the space-separated "<key>=<int>" token of a
/// header line (which starts "# ").
std::int64_t header_field(std::string_view line, std::string_view key) {
  for (const std::string_view token : split(line.substr(2), ' ')) {
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return parse_int(token.substr(key.size() + 1), key.data());
    }
  }
  throw std::runtime_error("trace csv: missing header field " +
                           std::string(key));
}

}  // namespace

void write_trace_csv(std::ostream& os, const ProbeTrace& trace) {
  os << kMagic << '\n'
     << "# delta_ns=" << trace.delta.count_nanos()
     << " probe_wire_bytes=" << trace.probe_wire_bytes
     << " clock_tick_ns=" << trace.clock_tick.count_nanos() << '\n'
     << "seq,send_ns,received,rtt_ns,echo_ns\n";
  for (const auto& record : trace.records) {
    os << record.seq << ',' << record.send_time.count_nanos() << ','
       << (record.received ? 1 : 0) << ',' << record.rtt.count_nanos() << ','
       << record.echo_time.count_nanos() << '\n';
  }
  if (!os) throw std::runtime_error("trace csv: write failed");
}

void save_trace_csv(const std::string& path, const ProbeTrace& trace) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("trace csv: cannot open " + path);
  write_trace_csv(file, trace);
}

ProbeTrace read_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    throw std::runtime_error("trace csv: bad magic line");
  }
  if (!std::getline(is, line) || line.rfind("# ", 0) != 0) {
    throw std::runtime_error("trace csv: missing metadata line");
  }
  ProbeTrace trace;
  trace.delta = Duration::nanos(header_field(line, "delta_ns"));
  trace.probe_wire_bytes = header_field(line, "probe_wire_bytes");
  trace.clock_tick = Duration::nanos(header_field(line, "clock_tick_ns"));

  if (!std::getline(is, line) ||
      line != "seq,send_ns,received,rtt_ns,echo_ns") {
    throw std::runtime_error("trace csv: missing column header");
  }

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split(line, ',');
    if (cells.size() != 5) {
      throw std::runtime_error("trace csv: expected 5 fields, got " +
                               std::to_string(cells.size()));
    }
    ProbeRecord record;
    record.seq = static_cast<std::uint64_t>(parse_int(cells[0], "seq"));
    record.send_time = Duration::nanos(parse_int(cells[1], "send_ns"));
    const std::int64_t received = parse_int(cells[2], "received");
    if (received != 0 && received != 1) {
      throw std::runtime_error("trace csv: received must be 0 or 1");
    }
    record.received = received == 1;
    record.rtt = Duration::nanos(parse_int(cells[3], "rtt_ns"));
    record.echo_time = Duration::nanos(parse_int(cells[4], "echo_ns"));
    if (record.seq != trace.records.size()) {
      throw std::runtime_error("trace csv: sequence numbers must be dense");
    }
    trace.records.push_back(record);
  }
  return trace;
}

ProbeTrace load_trace_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("trace csv: cannot open " + path);
  return read_trace_csv(file);
}

}  // namespace bolot::analysis
