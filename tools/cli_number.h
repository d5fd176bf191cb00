// The strict unsigned-decimal parser behind the command-line tools' numeric flags
// (realrate_check, trace_replay). A malformed number must fail loudly: silently
// running seed 0 instead of the one pasted from a CI log would "reproduce" the
// wrong scenario. strtoull alone is not enough — it wraps negative input ("-5"
// becomes 2^64-5), skips leading whitespace, and clamps overflow with errno — so
// the parser takes digits only and checks the range itself.
#ifndef REALRATE_TOOLS_CLI_NUMBER_H_
#define REALRATE_TOOLS_CLI_NUMBER_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace realrate::cli {

// Parses `text` as an unsigned decimal in [0, max] into `out`. Signs, whitespace,
// base prefixes, trailing garbage, the empty string and overflow all fail.
inline bool ParseUnsigned(const char* text, uint64_t max, uint64_t& out) {
  if (text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value > max) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace realrate::cli

#endif  // REALRATE_TOOLS_CLI_NUMBER_H_
