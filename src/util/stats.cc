#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace realrate {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::Merge(SampleSet&& other) {
  // Front to back, so each of other's blocks is freed as soon as its last
  // sample is copied: the two sets never hold more than the samples plus a
  // block each.
  while (!other.samples_.empty()) {
    samples_.push_back(other.samples_.front());
    other.samples_.pop_front();
  }
}

double SampleSet::Percentile(double p) const { return Percentiles({p}).front(); }

std::vector<double> SampleSet::Percentiles(const std::vector<double>& ps) const {
  RR_EXPECTS(!samples_.empty());
  std::vector<double> out;
  out.reserve(ps.size());
  const size_t last = samples_.size() - 1;
  // Everything from `from` on is no smaller than everything before it: the
  // previous selection partitioned the samples at its rank.
  auto from = samples_.begin();
  for (size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    RR_EXPECTS(p >= 0.0 && p <= 100.0);
    RR_EXPECTS(i == 0 || ps[i - 1] <= p);
    if (last == 0) {
      out.push_back(samples_[0]);
      continue;
    }
    const double rank = p / 100.0 * static_cast<double>(last);
    const auto lo = static_cast<size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    if (nth >= from) {
      std::nth_element(from, nth, samples_.end());
      from = nth + 1;
    }
    // *nth is the lo-th order statistic and everything above it is no smaller,
    // so the (lo + 1)-th is the minimum of the upper part.
    const double upper =
        nth + 1 == samples_.end() ? *nth : *std::min_element(nth + 1, samples_.end());
    out.push_back(*nth * (1.0 - frac) + upper * frac);
  }
  return out;
}

double SampleSet::Mean() const {
  RR_EXPECTS(!samples_.empty());
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  RR_EXPECTS(xs.size() == ys.size());
  RR_EXPECTS(xs.size() >= 2);
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  if (sxx == 0.0) {
    return fit;  // Vertical line: slope undefined, report zeros.
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy == 0.0) {
    fit.r_squared = 1.0;  // All y equal: the fit is exact.
  } else {
    fit.r_squared = (sxy * sxy) / (sxx * syy);
  }
  return fit;
}

}  // namespace realrate
