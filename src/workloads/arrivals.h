// Open-loop arrival processes: deterministic, seedable request streams for the
// Flash-style web-server farm (workloads/web_farm.h) and the trace replayer
// (tools/trace_replay). Unlike the closed-loop producers elsewhere in workloads/,
// the streams generated here do not respond to backpressure — requests arrive when
// the outside world says they arrive, which is what makes overload storms, flash
// crowds, and sustained over-subscription expressible at all.
//
// Everything is a pure function of an ArrivalConfig (plain data, embeddable in a
// WorkloadSpec) through util/rng, so any stream is replayable bit-for-bit from its
// config alone, and a materialized stream round-trips exactly through the request
// log format (workloads/request_log.h): all fields are integral.
#ifndef REALRATE_WORKLOADS_ARRIVALS_H_
#define REALRATE_WORKLOADS_ARRIVALS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

// One request in an open-loop stream. `arrival` is the offset from the start of the
// run; `bytes` is the request's size in its queues; `service_cycles` is the CPU the
// worker spends on it. Integral fields only, so a stream serializes losslessly.
struct RequestRecord {
  Duration arrival = Duration::Zero();
  int64_t bytes = 0;
  Cycles service_cycles = 0;

  friend bool operator==(const RequestRecord&, const RequestRecord&) = default;
};

// One step of a piecewise-constant load multiplier (a diurnal curve or a flash
// crowd): from `start` until the next segment's start, the base arrival rate is
// multiplied by `multiplier`. Before the first segment the multiplier is 1.0.
// Segments must be sorted ascending by start.
struct LoadSegment {
  Duration start = Duration::Zero();
  double multiplier = 1.0;
};

// The multiplier in effect at offset `t` (the last segment whose start is <= t).
double LoadMultiplierAt(const std::vector<LoadSegment>& curve, Duration t);

// Configuration for a generated stream. Plain data: WorkloadSpec embeds one per
// open-loop farm and the seeded generator draws every field.
struct ArrivalConfig {
  enum class Kind {
    // Memoryless request arrivals at requests_per_sec (load-curve modulated).
    kPoisson,
    // Session churn: sessions arrive Poisson at sessions_per_sec (load-curve
    // modulated); each issues a Pareto(session_alpha)-distributed number of
    // requests spaced exponential(mean_think) apart. Sessions overlap and end
    // independently — the heavy tail means a few sessions are very long.
    kParetoSessions,
  };

  Kind kind = Kind::kPoisson;
  uint64_t seed = 1;

  // kPoisson: base mean request rate before the load curve multiplies it.
  double requests_per_sec = 1000.0;

  // Request shape. With *_alpha == 0 every request is identical; with alpha > 0 the
  // value is Pareto(xm = base, alpha)-distributed, clamped to the max.
  int64_t request_bytes = 256;
  double bytes_alpha = 0.0;
  int64_t max_request_bytes = 4096;
  Cycles service_cycles = 200'000;
  double service_alpha = 0.0;
  Cycles max_service_cycles = 20'000'000;

  // kParetoSessions parameters.
  double sessions_per_sec = 100.0;
  double session_alpha = 1.5;
  double session_min_requests = 2.0;
  double session_max_requests = 256.0;
  Duration mean_think = Duration::Millis(5);

  // Piecewise-constant multiplier over the arrival (or session-arrival) rate.
  std::vector<LoadSegment> load_curve;

  // Hard cap on the materialized stream. A config whose stream would exceed it
  // before the horizon is a bug, not a truncation: GenerateRequests fails an
  // RR_CHECK rather than silently ending the run's arrivals early.
  int64_t max_requests = 2'000'000;
};

// Materializes the stream for [0, horizon): arrivals sorted non-decreasing,
// deterministic for a given (config, horizon). Piecewise-constant rate modulation is
// exact (the exponential gap is redrawn at each segment boundary, valid by
// memorylessness), not thinned. Dies (RR_CHECK) if the stream for [0, horizon) holds
// more than config.max_requests records.
std::vector<RequestRecord> GenerateRequests(const ArrivalConfig& config, Duration horizon);

// The mean of the per-request service demand implied by `config` (accounting for the
// Pareto tail when service_alpha > 1; alpha <= 1 has no finite mean, so the clamp cap
// dominates and the scale is returned as a floor). Used to size offered-load sweeps.
double MeanServiceCycles(const ArrivalConfig& config);

// Feeds a materialized stream into a sink at each record's arrival time, from
// simulator (kernel) context — the analogue of ArrivalProcess for explicit records.
// The sink typically pushes into a listen queue and counts drops; it must not assume
// a thread context.
//
// The injector owns the stream and reads it through one simulator cursor
// (sim/simulator.h): each delivery hands the next record to the sink, then arms
// the cursor at the record after it, so an arrival takes the same place in the
// event order that a per-arrival ScheduleAt would, without a heap event. The
// stream may be given whole at construction (a standalone farm) or grow batch by
// batch through Append (a cluster node, fed its routed share at every epoch fence).
class RequestInjector {
 public:
  using Sink = std::function<void(const RequestRecord&)>;

  // Arms the first arrival, so construct before the run begins (arrivals are
  // offsets from Origin and must not land in the simulator's past). `records` must
  // be sorted non-decreasing by arrival (GenerateRequests and ParseRequestLog both
  // guarantee it). Must not outlive `sim`.
  RequestInjector(Simulator& sim, std::vector<RequestRecord> records, Sink sink);
  // Removes the cursor: a destroyed injector never delivers again.
  ~RequestInjector();
  RequestInjector(const RequestInjector&) = delete;
  RequestInjector& operator=(const RequestInjector&) = delete;

  // Extends the stream. `records` must be sorted and arrive no earlier than the
  // stream's last record, and — if the stream has drained — no earlier than now.
  // A drained stream resumes here by arming the first appended arrival (and drops
  // the records it has delivered, so a node fed batch by batch holds one batch at
  // a time); with an arrival still armed, delivery simply runs on into the new
  // records.
  void Append(std::vector<RequestRecord> records);

  int64_t injected() const { return injected_; }

 private:
  // Arms the cursor at records_[next_], if the stream has one.
  void Arm();
  // The cursor's callback: one arrival into the sink.
  void Deliver();

  Simulator& sim_;
  std::vector<RequestRecord> records_;
  Sink sink_;
  Simulator::CursorId cursor_;
  size_t next_ = 0;  // records_[next_] is the armed arrival, if any.
  int64_t injected_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_ARRIVALS_H_
