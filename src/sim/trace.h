// Structured trace of scheduler-visible events. Tests assert on it; the determinism
// property tests hash it; examples can dump it for inspection.
#ifndef REALRATE_SIM_TRACE_H_
#define REALRATE_SIM_TRACE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"
#include "util/types.h"

namespace realrate {

enum class TraceKind : uint8_t {
  kDispatch,       // arg0 = cycles granted
  kBlock,          // arg0 = queue id
  kWake,           // arg0 = queue id or -1 (timer wake)
  kBudgetExhausted,  // arg0 = cycles used this period
  kDeadlineMiss,   // arg0 = cycles short
  kAllocationSet,  // arg0 = proportion ppt, arg1 = period ns
  kQualityException,  // arg0 = queue id
  kAdmitted,       // arg0 = proportion ppt
  kRejected,       // arg0 = requested ppt
  kExit,
  kMigrate,        // arg0 = from core, arg1 = to core
};

struct TraceEvent {
  TimePoint t;
  TraceKind kind;
  ThreadId thread;
  int64_t arg0;
  int64_t arg1;
};

class TraceRecorder {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Hash-only mode folds every event into the running hash but stores nothing: the
  // hash stays bit-identical to full mode while Record sheds the event vector's
  // memory traffic. For throughput scenarios (the server farm records millions of
  // events per run) whose results only read Hash(); events()/Count()/
  // WellFormedError() see an empty trace in this mode, so callers that inspect
  // events must leave it off.
  void SetHashOnly(bool hash_only) { hash_only_ = hash_only; }

  void Record(TimePoint t, TraceKind kind, ThreadId thread, int64_t arg0 = 0, int64_t arg1 = 0) {
    if (enabled_) {
      const TraceEvent event{t, kind, thread, arg0, arg1};
      if (stage_ != nullptr) {
        stage_->push_back(event);  // Deferred: folded later via RecordEvent.
        return;
      }
      MixEvent(running_hash_, event);
      if (!hash_only_) {
        events_.push_back(event);
      }
    }
  }

  // Staging: while a stage vector is installed, Record appends raw events to it
  // instead of folding them into the hash — the parallel engine captures each core's
  // records into a per-core lane, then replays the lanes in fixed core order through
  // RecordEvent at the epoch barrier, reproducing the reference engine's exact fold
  // order. Install nullptr to return to direct recording.
  void SetStage(std::vector<TraceEvent>* stage) { stage_ = stage; }

  // Folds one previously staged event exactly as a direct Record would have.
  void RecordEvent(const TraceEvent& event) {
    MixEvent(running_hash_, event);
    if (!hash_only_) {
      events_.push_back(event);
    }
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() {
    events_.clear();
    running_hash_ = kFnvOffset;
  }

  // Count events of `kind` for `thread` (any thread if thread == kInvalidThreadId).
  int64_t Count(TraceKind kind, ThreadId thread = kInvalidThreadId) const;

  // FNV-1a over the raw event stream; equal hashes <=> identical schedules. The fold
  // is maintained incrementally by Record, so reading the hash is O(1) no matter how
  // long the trace is (the farm benches read it once per run).
  uint64_t Hash() const { return running_hash_; }

  // Recomputes the hash by scanning the stored events with the literal FNV-1a byte
  // loop — the definition, kept as the oracle the running fold is validated
  // against in tests.
  uint64_t HashScan() const;

  // Validates events [from, size()): timestamps non-decreasing (each event is also
  // compared against its predecessor at from - 1), thread ids valid, dispatch cycle
  // counts non-negative, allocations within [0, kFull] ppt, migrations between
  // distinct cores.
  // Returns a description of the first malformed event, or "" when well-formed. The
  // invariant oracle calls this incrementally with the index it last validated up to.
  std::string WellFormedError(size_t from = 0) const;

  std::string ToString(size_t max_events = 100) const;

 private:
  static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
  static constexpr uint64_t kFnvPrime = 0x100000001b3ull;

  // kFnvPrime^k mod 2^64 for k in [0, 8].
  static constexpr std::array<uint64_t, 9> kFnvPrimePowers = [] {
    std::array<uint64_t, 9> powers{};
    powers[0] = 1;
    for (size_t k = 1; k < powers.size(); ++k) {
      powers[k] = powers[k - 1] * kFnvPrime;
    }
    return powers;
  }();

  // Folds one event into `h` exactly as HashScan's byte loop does: little-endian
  // bytes, field order (t, kind, thread, arg0, arg1). A zero byte's xor is a no-op,
  // so each field's run of high zero bytes folds as one multiply by a power of
  // the prime; only the low, significant bytes go through the loop.
  static void MixEvent(uint64_t& h, const TraceEvent& e) {
    auto mix = [&h](uint64_t v) {
      const int bytes = (64 - std::countl_zero(v) + 7) / 8;
      for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
      }
      h *= kFnvPrimePowers[static_cast<size_t>(8 - bytes)];
    };
    mix(static_cast<uint64_t>(e.t.nanos()));
    mix(static_cast<uint64_t>(e.kind));
    mix(static_cast<uint64_t>(e.thread));
    mix(static_cast<uint64_t>(e.arg0));
    mix(static_cast<uint64_t>(e.arg1));
  }

  bool enabled_ = false;
  bool hash_only_ = false;
  std::vector<TraceEvent>* stage_ = nullptr;  // Borrowed; see SetStage.
  std::vector<TraceEvent> events_;
  uint64_t running_hash_ = kFnvOffset;
};

const char* ToString(TraceKind kind);

}  // namespace realrate

#endif  // REALRATE_SIM_TRACE_H_
