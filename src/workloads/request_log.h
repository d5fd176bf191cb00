// The line-based request-log format behind tools/trace_replay: a captured or
// hand-written log replays deterministically through the web farm
// (workloads/web_farm.h), and a generated stream round-trips bit-exactly because
// every RequestRecord field is integral.
//
// Format (one request per line, whitespace-separated; LF or CRLF line endings):
//
//   # comment — ignored, as are blank lines
//   <arrival_ns> <bytes> <service_cycles>
//
// arrival_ns is the offset from the start of the run in virtual nanoseconds, and
// must be non-decreasing down the file; bytes and service_cycles must be positive.
// SerializeRequestLog emits a `# realrate request log v1` header comment; the parser
// does not require it.
#ifndef REALRATE_WORKLOADS_REQUEST_LOG_H_
#define REALRATE_WORKLOADS_REQUEST_LOG_H_

#include <string>
#include <vector>

#include "workloads/arrivals.h"

namespace realrate {

std::string SerializeRequestLog(const std::vector<RequestRecord>& records);

// Parses `text` into `out` (replacing its contents). Returns false — with a
// line-numbered message in `*error` if non-null — on any malformed line,
// non-positive size, or out-of-order arrival; `out` is left empty on failure.
bool ParseRequestLog(const std::string& text, std::vector<RequestRecord>* out,
                     std::string* error);

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_REQUEST_LOG_H_
