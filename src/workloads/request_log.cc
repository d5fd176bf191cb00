#include "workloads/request_log.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/assert.h"

namespace realrate {

namespace {

// Parses one strictly-formatted non-negative int64 token starting at *p, advancing
// *p past it. Returns false on missing token, sign, garbage, or overflow.
bool ParseToken(const char** p, int64_t* value) {
  while (**p == ' ' || **p == '\t') {
    ++*p;
  }
  if (**p < '0' || **p > '9') {
    return false;  // Empty, sign, or non-numeric: the format is unsigned decimal.
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(*p, &end, 10);
  if (errno == ERANGE || v < 0) {
    return false;
  }
  *p = end;
  *value = v;
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

  int line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    // A CRLF log's '\r' belongs to the line ending, not to the last field.
    const size_t end = eol > pos && text[eol - 1] == '\r' ? eol - 1 : eol;
    const std::string line = text.substr(pos, end - pos);
    pos = eol + 1;
    // The fields are read through c_str(), which would end the line at a NUL.
    if (line.find('\0') != std::string::npos) {
      return fail(line_no, "NUL byte in line");
    }

    const char* p = line.c_str();
    while (*p == ' ' || *p == '\t') {
      ++p;
    }
    if (*p == '\0' || *p == '#') {
      continue;  // Blank or comment.
    }
    int64_t arrival_ns = 0;
    int64_t bytes = 0;
    int64_t cycles = 0;
    if (!ParseToken(&p, &arrival_ns) || !ParseToken(&p, &bytes) ||
        !ParseToken(&p, &cycles)) {
      return fail(line_no, "expected `arrival_ns bytes service_cycles`");
    }
    while (*p == ' ' || *p == '\t') {
      ++p;
    }
    if (*p != '\0') {
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
