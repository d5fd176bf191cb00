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

// Appends the arrival offsets of a Poisson process with base rate `per_sec`,
// modulated by the piecewise-constant curve. Exact (no thinning): within a segment
// the rate is constant so exponential gaps are exact, and at each segment boundary
// the in-flight gap is discarded and redrawn at the new rate — valid because the
// exponential is memoryless, deterministic because the draw sequence is a pure
// function of (seed, curve, horizon). More than `max_count` arrivals before the
// horizon fails the stream's cap (see ArrivalConfig::max_requests).
void AppendPoissonTimes(Rng& rng, double per_sec, const std::vector<LoadSegment>& curve,
                        Duration horizon, int64_t max_count, std::vector<Duration>& out) {
  RR_EXPECTS(per_sec > 0);
  Duration t = Duration::Zero();
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
    RR_CHECK(static_cast<int64_t>(out.size()) < max_count &&
             "stream exceeds ArrivalConfig::max_requests before the horizon");
    out.push_back(t);
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

  auto emit = [&](Duration arrival) {
    RequestRecord r;
    r.arrival = arrival;
    r.bytes = DrawSize(rng, config.request_bytes, config.bytes_alpha, config.max_request_bytes);
    r.service_cycles =
        DrawSize(rng, config.service_cycles, config.service_alpha, config.max_service_cycles);
    records.push_back(r);
  };

  switch (config.kind) {
    case ArrivalConfig::Kind::kPoisson: {
      std::vector<Duration> times;
      AppendPoissonTimes(rng, config.requests_per_sec, config.load_curve, horizon,
                         config.max_requests, times);
      records.reserve(times.size());  // One allocation instead of growth by doubling.
      for (const Duration t : times) {
        emit(t);
      }
      break;
    }
    case ArrivalConfig::Kind::kParetoSessions: {
      RR_EXPECTS(config.sessions_per_sec > 0);
      RR_EXPECTS(config.session_min_requests >= 1.0);
      RR_EXPECTS(config.session_max_requests >= config.session_min_requests);
      RR_EXPECTS(config.mean_think.IsPositive());
      std::vector<Duration> starts;
      AppendPoissonTimes(rng, config.sessions_per_sec, config.load_curve, horizon,
                         config.max_requests, starts);
      for (const Duration start : starts) {
        const double drawn =
            rng.NextPareto(config.session_min_requests, config.session_alpha);
        const auto count = static_cast<int64_t>(
            std::floor(std::min(drawn, config.session_max_requests)));
        Duration at = start;
        for (int64_t i = 0; i < count && at < horizon; ++i) {
          RR_CHECK(static_cast<int64_t>(records.size()) < config.max_requests &&
                   "stream exceeds ArrivalConfig::max_requests before the horizon");
          emit(at);
          const double think_s = rng.NextExponential(config.mean_think.ToSeconds());
          at += Duration::Nanos(std::max<int64_t>(
              1, static_cast<int64_t>(std::llround(think_s * 1e9))));
        }
      }
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

RequestInjector::RequestInjector(Simulator& sim, std::vector<RequestRecord> records,
                                 Sink sink)
    : sim_(sim), sink_(std::move(sink)), cursor_(sim.AddCursor([this] { Deliver(); })) {
  RR_EXPECTS(sink_ != nullptr);
  Append(std::move(records));
}

RequestInjector::~RequestInjector() { sim_.RemoveCursor(cursor_); }

void RequestInjector::Append(std::vector<RequestRecord> records) {
  if (records.empty()) {
    return;
  }
  RR_EXPECTS(records_.empty() || records_.back().arrival <= records.front().arrival);
  for (size_t i = 1; i < records.size(); ++i) {
    RR_EXPECTS(records[i - 1].arrival <= records[i].arrival);
  }
  if (next_ < records_.size()) {
    records_.insert(records_.end(), records.begin(), records.end());
    return;  // The armed arrival carries delivery into the new records.
  }
  records_ = std::move(records);
  next_ = 0;
  Arm();
}

void RequestInjector::Arm() {
  if (next_ < records_.size()) {
    sim_.Arm(cursor_, TimePoint::Origin() + records_[next_].arrival);
  }
}

void RequestInjector::Deliver() {
  const RequestRecord& r = records_[next_];
  ++next_;
  ++injected_;
  sink_(r);
  Arm();
}

}  // namespace realrate
