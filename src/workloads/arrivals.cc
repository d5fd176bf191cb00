#include "workloads/arrivals.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/rng.h"

namespace realrate {

namespace {

// The first segment boundary strictly after `t`, or `horizon` if none. Segments are
// few (a diurnal curve has a handful of steps), so a linear scan is fine.
Duration NextBoundaryAfter(const std::vector<LoadSegment>& curve, Duration t,
                           Duration horizon) {
  for (const LoadSegment& s : curve) {
    if (s.start > t && s.start < horizon) {
      return s.start;
    }
  }
  return horizon;
}

// Visits, in order, the arrival offsets of a Poisson process with base rate
// `per_sec`, modulated by the piecewise-constant curve. Exact (no thinning): within
// a segment the rate is constant so exponential gaps are exact, and at each segment
// boundary the in-flight gap is discarded and redrawn at the new rate — valid
// because the exponential is memoryless, deterministic because the draw sequence is
// a pure function of (seed, curve, horizon). More than `max_count` arrivals before
// the horizon fails the stream's cap (see ArrivalConfig::max_requests).
template <class Visit>
void ForEachPoissonTime(Rng& rng, double per_sec, const std::vector<LoadSegment>& curve,
                        Duration horizon, int64_t max_count, Visit visit) {
  RR_EXPECTS(per_sec > 0);
  Duration t = Duration::Zero();
  int64_t count = 0;
  while (true) {
    const double rate = per_sec * LoadMultiplierAt(curve, t);
    if (rate <= 0.0) {
      // Dead zone (multiplier 0): skip to the next boundary, if any remains.
      const Duration boundary = NextBoundaryAfter(curve, t, horizon);
      if (boundary >= horizon) {
        return;
      }
      t = boundary;
      continue;
    }
    const double gap_s = rng.NextExponential(1.0 / rate);
    const Duration gap =
        Duration::Nanos(std::max<int64_t>(1, static_cast<int64_t>(std::llround(gap_s * 1e9))));
    const Duration boundary = NextBoundaryAfter(curve, t, horizon);
    if (t + gap >= boundary) {
      if (boundary >= horizon) {
        return;
      }
      t = boundary;
      continue;
    }
    t = t + gap;
    RR_CHECK(count < max_count &&
             "stream exceeds ArrivalConfig::max_requests before the horizon");
    ++count;
    visit(t);
  }
}

int64_t DrawSize(Rng& rng, int64_t base, double alpha, int64_t cap) {
  if (alpha <= 0.0) {
    return std::min(base, cap);
  }
  const double v = rng.NextPareto(static_cast<double>(base), alpha);
  const auto drawn = static_cast<int64_t>(std::llround(v));
  return std::clamp<int64_t>(drawn, 1, cap);
}

// Draws a record's sizes: its bytes, then its service demand.
void DrawSizes(Rng& rng, const ArrivalConfig& config, RequestRecord& r) {
  r.bytes = DrawSize(rng, config.request_bytes, config.bytes_alpha, config.max_request_bytes);
  r.service_cycles =
      DrawSize(rng, config.service_cycles, config.service_alpha, config.max_service_cycles);
}

// Visits, session by session, every request of the sessions opening at `starts`:
// each session draws its request count, then per request its sizes and the
// think time to the next, until the count or the horizon ends it. More than
// max_requests records fails the stream's cap.
template <class Visit>
void ForEachSessionRecord(Rng& rng, const ArrivalConfig& config,
                          const std::vector<Duration>& starts, Duration horizon,
                          Visit visit) {
  int64_t total = 0;
  for (const Duration start : starts) {
    const double drawn = rng.NextPareto(config.session_min_requests, config.session_alpha);
    const auto count =
        static_cast<int64_t>(std::floor(std::min(drawn, config.session_max_requests)));
    Duration at = start;
    for (int64_t i = 0; i < count && at < horizon; ++i) {
      RR_CHECK(total < config.max_requests &&
               "stream exceeds ArrivalConfig::max_requests before the horizon");
      ++total;
      RequestRecord r{at, 0, 0};
      DrawSizes(rng, config, r);
      visit(r);
      const double think_s = rng.NextExponential(config.mean_think.ToSeconds());
      at += Duration::Nanos(
          std::max<int64_t>(1, static_cast<int64_t>(std::llround(think_s * 1e9))));
    }
  }
}

// Fails a precondition unless [begin, end) is non-decreasing by arrival.
void CheckOrder(const RequestRecord* begin, const RequestRecord* end) {
  for (const RequestRecord* r = begin; r != end && r + 1 != end; ++r) {
    RR_EXPECTS(r->arrival <= r[1].arrival);
  }
}

}  // namespace

double LoadMultiplierAt(const std::vector<LoadSegment>& curve, Duration t) {
  double multiplier = 1.0;
  for (const LoadSegment& s : curve) {
    if (s.start <= t) {
      multiplier = s.multiplier;
    } else {
      break;
    }
  }
  return multiplier;
}

std::vector<RequestRecord> GenerateRequests(const ArrivalConfig& config, Duration horizon) {
  RR_EXPECTS(horizon.IsPositive());
  RR_EXPECTS(config.request_bytes > 0);
  RR_EXPECTS(config.service_cycles > 0);
  RR_EXPECTS(config.max_requests > 0);
  Rng rng(config.seed);
  std::vector<RequestRecord> records;

  // Each list below is written once, into one allocation of its exact size: a
  // copy of the generator first walks ahead and counts, then the real one draws
  // the same sequence as ever.
  switch (config.kind) {
    case ArrivalConfig::Kind::kPoisson: {
      // Every gap, then each record's sizes.
      Rng counter = rng;
      size_t count = 0;
      ForEachPoissonTime(counter, config.requests_per_sec, config.load_curve, horizon,
                         config.max_requests, [&count](Duration) { ++count; });
      records.reserve(count);
      ForEachPoissonTime(rng, config.requests_per_sec, config.load_curve, horizon,
                         config.max_requests,
                         [&records](Duration t) { records.push_back({t, 0, 0}); });
      for (RequestRecord& r : records) {
        DrawSizes(rng, config, r);
      }
      break;
    }
    case ArrivalConfig::Kind::kParetoSessions: {
      RR_EXPECTS(config.sessions_per_sec > 0);
      RR_EXPECTS(config.session_min_requests >= 1.0);
      RR_EXPECTS(config.session_max_requests >= config.session_min_requests);
      RR_EXPECTS(config.mean_think.IsPositive());
      // Every session start, then each session's requests.
      Rng counter = rng;
      size_t session_count = 0;
      ForEachPoissonTime(counter, config.sessions_per_sec, config.load_curve, horizon,
                         config.max_requests, [&session_count](Duration) { ++session_count; });
      std::vector<Duration> starts;
      starts.reserve(session_count);
      ForEachPoissonTime(rng, config.sessions_per_sec, config.load_curve, horizon,
                         config.max_requests,
                         [&starts](Duration t) { starts.push_back(t); });
      counter = rng;
      size_t count = 0;
      ForEachSessionRecord(counter, config, starts, horizon,
                           [&count](const RequestRecord&) { ++count; });
      records.reserve(count);
      ForEachSessionRecord(rng, config, starts, horizon,
                           [&records](const RequestRecord& r) { records.push_back(r); });
      // Sessions interleave; restore global arrival order. stable_sort keeps the
      // (deterministic) generation order among simultaneous arrivals.
      std::stable_sort(records.begin(), records.end(),
                       [](const RequestRecord& a, const RequestRecord& b) {
                         return a.arrival < b.arrival;
                       });
      break;
    }
  }
  return records;
}

double MeanServiceCycles(const ArrivalConfig& config) {
  const auto scale = static_cast<double>(config.service_cycles);
  if (config.service_alpha <= 0.0) {
    return scale;
  }
  if (config.service_alpha > 1.0) {
    // Pareto mean; the clamp at max_service_cycles only trims the extreme tail.
    return std::min(scale * config.service_alpha / (config.service_alpha - 1.0),
                    static_cast<double>(config.max_service_cycles));
  }
  // alpha <= 1: no finite mean; the scale is a floor, which is all a sweep needs.
  return scale;
}

RequestInjector::RequestInjector(Simulator& sim, RequestSpan records, Sink sink)
    : sim_(sim), sink_(std::move(sink)), cursor_(sim.AddCursor([this] { Deliver(); })) {
  RR_EXPECTS(sink_ != nullptr);
  Append(records);
}

RequestInjector::~RequestInjector() {
  // Records never delivered were never checked at delivery; check them here, so
  // a stream out of order past the end of the run still fails.
  CheckOrder(next_, end_);
  for (const RequestSpan& run : queued_) {
    CheckOrder(run.begin(), run.end());
  }
  sim_.RemoveCursor(cursor_);
}

void RequestInjector::Append(RequestSpan records) {
  if (records.empty()) {
    return;
  }
  // Only the junctions are checked here: this one, and (for a drained stream)
  // Simulator::Arm's check that the run does not start in the past. The run's
  // own order is checked one record ahead as it is delivered, or at destruction.
  RR_EXPECTS(tail_ <= records.front().arrival);
  tail_ = records.back().arrival;
  if (!drained()) {
    queued_.push_back(records);
    return;  // The armed arrival carries delivery into the new run.
  }
  next_ = records.begin();
  end_ = records.end();
  Arm();
}

void RequestInjector::Arm() {
  if (!drained()) {
    sim_.Arm(cursor_, TimePoint::Origin() + next_->arrival);
  }
}

void RequestInjector::Deliver() {
  const RequestRecord& r = *next_++;
  if (drained() && !queued_.empty()) {
    next_ = queued_.front().begin();
    end_ = queued_.front().end();
    queued_.erase(queued_.begin());
  }
  // The record about to be armed must not arrive before the one being delivered.
  RR_EXPECTS(drained() || r.arrival <= next_->arrival);
  ++injected_;
  sink_(r);
  Arm();
}

}  // namespace realrate
