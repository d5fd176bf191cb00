// Streaming and batch statistics used by the metrics pipeline and the benches.
#ifndef REALRATE_UTIL_STATS_H_
#define REALRATE_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace realrate {

// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance (n denominator); 0 when fewer than 2 samples.
  double variance() const;
  // Sample variance (n-1 denominator); 0 when fewer than 2 samples.
  double sample_variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Batch percentile computation. Keeps every sample, 8 bytes each, in fixed-size
// blocks: Add never reallocates or copies what is already stored, so a set's
// footprint is its samples plus a small block map, with no growth slack and no
// transient second buffer. Each Percentile is a selection over the samples
// (O(n)), not a sort, and Percentiles shares one pass among a batch; the
// selection permutes the samples in place, so their order is unspecified after
// one. Mean sums in insertion order until then.
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); }
  // Appends every sample of `other` in its order and leaves `other` empty,
  // freeing its blocks as they are copied: the combined samples are never held
  // twice (the cluster farm merges per-machine latency sets this way before
  // computing cluster-wide percentiles).
  void Merge(SampleSet&& other);
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Linear-interpolated percentile over the sorted order, p in [0, 100]: the
  // value at rank p/100 * (n - 1) between its two neighbouring order
  // statistics. Requires at least one sample.
  double Percentile(double p) const;
  // Percentile(ps[i]) for each i, exactly, in one ascending pass: `ps` must be
  // non-decreasing, and each selection runs only over the part above the
  // previous rank, so a batch of tail percentiles costs about one selection.
  std::vector<double> Percentiles(const std::vector<double>& ps) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;

 private:
  mutable std::deque<double> samples_;  // Percentile's selection reorders them.
};

// Ordinary least squares over (x, y) pairs. Reproduces the paper's Figure 5 fit
// report: "linear, y = .00066x + .00057, with a coefficient of determination of .999".
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace realrate

#endif  // REALRATE_UTIL_STATS_H_
