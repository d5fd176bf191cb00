#include "workloads/request_log.h"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "util/assert.h"

namespace realrate {

namespace {

// Drops the leading spaces and tabs of `s`.
void SkipBlanks(std::string_view& s) {
  const size_t first = s.find_first_not_of(" \t");
  s.remove_prefix(first == std::string_view::npos ? s.size() : first);
}

// Parses one strictly-formatted non-negative int64 token at the front of `s`,
// dropping it from `s`. Returns false on missing token, sign, garbage, or overflow.
bool ParseToken(std::string_view& s, int64_t* value) {
  SkipBlanks(s);
  if (s.empty() || s.front() < '0' || s.front() > '9') {
    return false;  // Empty, sign, or non-numeric: the format is unsigned decimal.
  }
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *value);
  if (ec != std::errc()) {
    return false;  // Out of int64 range.
  }
  s.remove_prefix(static_cast<size_t>(end - s.data()));
  return true;
}

}  // namespace

std::string SerializeRequestLog(const std::vector<RequestRecord>& records) {
  std::string out = "# realrate request log v1\n# arrival_ns bytes service_cycles\n";
  char line[96];
  for (const RequestRecord& r : records) {
    std::snprintf(line, sizeof(line), "%lld %lld %lld\n",
                  static_cast<long long>(r.arrival.nanos()),
                  static_cast<long long>(r.bytes),
                  static_cast<long long>(r.service_cycles));
    out += line;
  }
  return out;
}

bool ParseRequestLog(const std::string& text, std::vector<RequestRecord>* out,
                     std::string* error) {
  RR_EXPECTS(out != nullptr);
  out->clear();
  auto fail = [&](int line_no, const char* what) {
    if (error != nullptr) {
      *error = "request log line " + std::to_string(line_no) + ": " + what;
    }
    out->clear();
    return false;
  };

  const std::string_view all(text);
  int line_no = 0;
  size_t pos = 0;
  while (pos < all.size()) {
    ++line_no;
    size_t eol = all.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = all.size();
    }
    // A CRLF log's '\r' belongs to the line ending, not to the last field.
    const size_t end = eol > pos && all[eol - 1] == '\r' ? eol - 1 : eol;
    std::string_view line = all.substr(pos, end - pos);
    pos = eol + 1;
    // A NUL byte makes the line binary, not text, even inside a comment.
    if (line.find('\0') != std::string_view::npos) {
      return fail(line_no, "NUL byte in line");
    }

    SkipBlanks(line);
    if (line.empty() || line.front() == '#') {
      continue;  // Blank or comment.
    }
    int64_t arrival_ns = 0;
    int64_t bytes = 0;
    int64_t cycles = 0;
    if (!ParseToken(line, &arrival_ns) || !ParseToken(line, &bytes) ||
        !ParseToken(line, &cycles)) {
      return fail(line_no, "expected `arrival_ns bytes service_cycles`");
    }
    SkipBlanks(line);
    if (!line.empty()) {
      return fail(line_no, "trailing garbage after the three fields");
    }
    if (bytes <= 0 || cycles <= 0) {
      return fail(line_no, "bytes and service_cycles must be positive");
    }
    if (!out->empty() && Duration::Nanos(arrival_ns) < out->back().arrival) {
      return fail(line_no, "arrivals must be non-decreasing");
    }
    out->push_back({Duration::Nanos(arrival_ns), bytes, cycles});
  }
  return true;
}

}  // namespace realrate
