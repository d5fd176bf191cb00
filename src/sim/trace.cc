#include "sim/trace.h"

#include <cstdio>

namespace realrate {

const char* ToString(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDispatch:
      return "dispatch";
    case TraceKind::kBlock:
      return "block";
    case TraceKind::kWake:
      return "wake";
    case TraceKind::kBudgetExhausted:
      return "budget-exhausted";
    case TraceKind::kDeadlineMiss:
      return "deadline-miss";
    case TraceKind::kAllocationSet:
      return "allocation-set";
    case TraceKind::kQualityException:
      return "quality-exception";
    case TraceKind::kAdmitted:
      return "admitted";
    case TraceKind::kRejected:
      return "rejected";
    case TraceKind::kExit:
      return "exit";
    case TraceKind::kMigrate:
      return "migrate";
  }
  return "?";
}

int64_t TraceRecorder::Count(TraceKind kind, ThreadId thread) const {
  int64_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind && (thread == kInvalidThreadId || e.thread == thread)) {
      ++n;
    }
  }
  return n;
}

uint64_t TraceRecorder::HashScan() const {
  uint64_t h = kFnvOffset;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
  };
  for (const TraceEvent& e : events_) {
    mix(static_cast<uint64_t>(e.t.nanos()));
    mix(static_cast<uint64_t>(e.kind));
    mix(static_cast<uint64_t>(e.thread));
    mix(static_cast<uint64_t>(e.arg0));
    mix(static_cast<uint64_t>(e.arg1));
  }
  return h;
}

std::string TraceRecorder::WellFormedError(size_t from) const {
  char buf[160];
  auto describe = [&buf](size_t i, const TraceEvent& e, const char* what) {
    std::snprintf(buf, sizeof(buf), "trace event %zu (%s at %.6fs, thread %d): %s",
                  i, realrate::ToString(e.kind), e.t.ToSeconds(), e.thread, what);
    return std::string(buf);
  };
  for (size_t i = from; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0 && e.t < events_[i - 1].t) {
      return describe(i, e, "timestamp earlier than its predecessor");
    }
    if (e.thread < 0) {
      return describe(i, e, "invalid thread id");
    }
    switch (e.kind) {
      case TraceKind::kDispatch:
        // Zero is legitimate: a thread that blocks the instant it is dispatched (e.g.
        // a consumer finding its queue empty) consumes nothing.
        if (e.arg0 < 0) {
          return describe(i, e, "dispatch consumed a negative cycle count");
        }
        break;
      case TraceKind::kAllocationSet:
        if (e.arg0 < 0 || e.arg0 > Proportion::kFull) {
          return describe(i, e, "allocation outside [0, 1000] ppt");
        }
        if (e.arg1 <= 0) {
          return describe(i, e, "allocation with a non-positive period");
        }
        break;
      case TraceKind::kMigrate:
        if (e.arg0 < 0 || e.arg1 < 0 || e.arg0 == e.arg1) {
          return describe(i, e, "migration between invalid or identical cores");
        }
        break;
      default:
        break;
    }
  }
  return "";
}

std::string TraceRecorder::ToString(size_t max_events) const {
  std::string out;
  char line[160];
  size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (n++ >= max_events) {
      out += "...\n";
      break;
    }
    std::snprintf(line, sizeof(line), "%10.6fs thread=%d %s arg0=%lld arg1=%lld\n",
                  e.t.ToSeconds(), e.thread, realrate::ToString(e.kind),
                  static_cast<long long>(e.arg0), static_cast<long long>(e.arg1));
    out += line;
  }
  return out;
}

}  // namespace realrate
